// Fixture schema: engine_stop has no producer (seeded drift).
pub const SCOPES: &[&str] = &["engine_start", "engine_stop"];
