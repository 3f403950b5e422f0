package sim

// SharedAt is the last step whose timely round the engine delivered in one
// piece, 0 if none.
func SharedAt(e *Engine) int { return e.sharedAt }

// QueuedPerReceiver is the number of per-receiver deliveries the engine's
// delivery ring holds.
func QueuedPerReceiver(e *Engine) int {
	queued := 0
	for _, s := range e.due {
		for _, d := range s.q {
			if d.receiver != fanOutAll {
				queued++
			}
		}
	}
	return queued
}
