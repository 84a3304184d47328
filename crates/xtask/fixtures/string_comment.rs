// Analyzer fixture: regression for the line-regex scanner bug where the
// `//` inside a string literal truncated the rest of the line, hiding
// real code from the rules. Not compiled — scanned by xtask's tests.
fn endpoint(body: Payload) -> (&'static str, u64) {
    // The "//" in the URL must not hide the decode after it.
    ("http://proxy.local/metrics", *body.downcast::<u64>().unwrap())
}

fn label() -> &'static str {
    // Conversely, a decode *inside* a string must not fire.
    "body.downcast::<u64>().unwrap() walks into a bar"
}
