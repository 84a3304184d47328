// Analyzer fixture: must trip the `decode-unwrap` rule.
// Not compiled — scanned by xtask's unit tests.
fn decode(body: Box<dyn std::any::Any>) -> u64 {
    *body.downcast::<u64>().expect("peer sent garbage")
}
