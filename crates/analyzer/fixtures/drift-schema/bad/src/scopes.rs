// Fixture producer: only engine_start is entered.
const engine_start: u8 = 0;
