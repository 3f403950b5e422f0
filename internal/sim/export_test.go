package sim

// SharedAt is the last step whose timely round the engine delivered in one
// piece, 0 if none.
func SharedAt(e *Engine) int { return e.sharedAt }
