// Fixture producers: one scope as a const ident, one as a string literal.
const engine_start: u8 = 0;
fn stop() {
    profile_scope!("engine_stop");
}
