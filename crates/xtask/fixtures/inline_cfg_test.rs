// Analyzer fixture: regression for the line-regex scanner bug where a
// column-0 `#[cfg(test)]` stopped the scan for the whole remainder of
// the file, exempting any live code declared after the test module.
// Not compiled — scanned by xtask's unit tests.
fn live_before() {}

#[cfg(test)]
mod tests {
    fn _t(body: Payload) -> u8 {
        *body.downcast::<u8>().unwrap() // test code: exempt
    }
}

fn live_after(body: Payload) -> u8 {
    *body.downcast::<u8>().unwrap() // live code after the module: must fire
}
