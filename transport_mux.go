package anonconsensus

import "context"

// tcpMuxTransport is the long-lived shape of the TCP plane: ONE shared
// anonymous broadcast hub and a persistent pool of resumable hub sessions,
// with every Run riding those connections as a distinct instance epoch.
// Where the per-instance shape pays a hub, n dials and n handshakes per
// instance, this one pays them once and then multiplexes — the
// serving-plane shape for sustained traffic.
type tcpMuxTransport struct{ plane tcpPlane }

// NewTCPMuxTransport returns the multiplexed real-TCP backend. Run is
// safe for concurrent use: each call claims a fresh epoch, registers it
// on the first n connection slots (growing the pool to the largest n
// seen, and replacing a slot whose session was lost for good), runs the
// instance's automata over the shared connections, and retires the epoch
// on the hub when done. Crash schedules and link-fault scenarios (loss,
// duplication, partitions) apply per instance: the hub scopes faults by
// epoch, so a faulted instance does not disturb its co-tenants.
//
// Differences from NewTCPTransport, both rooted in connection sharing:
// GST adds no wall-clock jitter (a forward delay would stall every epoch
// queued behind it on the shared connection, so runs are synchronous from
// the start — a legal ES/ESS execution), and Result.Robustness stays zero
// per Run — reconnects, replays and heartbeat misses belong to
// connections that outlive and span instances, so charging them to the
// one Run that happened to observe them would misattribute. For the same
// reason InstanceSpec.Reconnect is fixed when a slot is first dialed. A
// slot that exhausts its reconnect budget counts as crashed for the
// epochs it carried.
func NewTCPMuxTransport() Transport {
	return &tcpMuxTransport{plane: tcpPlane{name: "tcp-mux"}}
}

// Name implements Transport.
func (t *tcpMuxTransport) Name() string { return t.plane.name }

// Close implements Transport.
func (t *tcpMuxTransport) Close() error { return t.plane.close() }

// Run implements Transport.
func (t *tcpMuxTransport) Run(ctx context.Context, spec InstanceSpec) (*Result, error) {
	return t.plane.run(ctx, spec)
}
