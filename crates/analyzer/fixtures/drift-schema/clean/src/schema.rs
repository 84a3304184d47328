// Fixture schema: two declared profile scopes.
pub const SCOPES: &[&str] = &["engine_start", "engine_stop"];
