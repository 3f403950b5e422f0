// Command anonnode runs anonymous consensus over real TCP: one invocation
// serves as the broadcast hub, the others as anonymous nodes. Nodes never
// exchange identities — frames carry no sender information — and the hub
// relays without annotating origin.
//
// Terminal 1 (hub):
//
//	anonnode -hub -listen 127.0.0.1:7777
//
// Terminals 2..n (one per process):
//
//	anonnode -connect 127.0.0.1:7777 -propose 41 -env es
//	anonnode -connect 127.0.0.1:7777 -propose 17 -env es
//
// Every node prints the agreed value and exits. Nodes survive transient
// network failure: a lost hub connection is redialed with backoff and the
// hub session resumed (-reconnect bounds the attempts; -reconnect=-1
// restores fail-fast). The hub prints its robustness counters — sessions,
// resumptions, heartbeat misses, dropped connections — when it stops.
//
// The multiplexed service (many instances as epochs over one connection
// per process) is driven in one process by anonload -backend mux.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"anonconsensus"
)

func main() {
	var (
		hub       = flag.Bool("hub", false, "run the broadcast hub")
		listen    = flag.String("listen", "127.0.0.1:7777", "hub listen address")
		connect   = flag.String("connect", "", "hub address to join as a node")
		propose   = flag.Int64("propose", -1, "value to propose (node mode)")
		env       = flag.String("env", "es", "algorithm: es (Algorithm 2) or ess (Algorithm 3)")
		interval  = flag.Duration("interval", 50*time.Millisecond, "round timer period")
		timeout   = flag.Duration("timeout", 60*time.Second, "node run timeout")
		reconnect = flag.Int("reconnect", 0, "max redials per connection outage (0 = default, -1 = fail fast)")
	)
	flag.Parse()

	if err := run(*hub, *listen, *connect, *propose, *env, *interval, *timeout, *reconnect); err != nil {
		fmt.Fprintln(os.Stderr, "anonnode:", err)
		os.Exit(1)
	}
}

func run(hub bool, listen, connect string, propose int64, env string, interval, timeout time.Duration, reconnect int) error {
	switch {
	case hub:
		return runHub(listen)
	case connect != "":
		return runNode(connect, propose, env, interval, timeout, reconnect)
	default:
		flag.Usage()
		return fmt.Errorf("pass -hub to relay or -connect to join")
	}
}

func runHub(listen string) error {
	h, err := anonconsensus.NewTCPHub(listen)
	if err != nil {
		return err
	}
	defer h.Close()
	fmt.Printf("hub relaying anonymous broadcasts on %s (ctrl-c to stop)\n", h.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	<-ctx.Done()
	s := h.Stats()
	fmt.Printf("hub stopping: %d sessions, %d resumed (%d frames replayed), %d heartbeat misses, %d conns dropped (%d overwhelmed)\n",
		s.Sessions, s.Reconnects, s.ReplayedFrames, s.HeartbeatMisses, s.DroppedConns, s.OverwhelmedDrops)
	return nil
}

func runNode(addr string, propose int64, envName string, interval, timeout time.Duration, reconnect int) error {
	if propose < 0 {
		return fmt.Errorf("node mode needs -propose <non-negative value>")
	}
	env, err := anonconsensus.ParseEnvironment(envName)
	if err != nil {
		return err
	}
	v := anonconsensus.NumValue(propose)
	fmt.Printf("joining %s anonymously, proposing %s (%s, round interval %s)\n",
		addr, v, env, interval)
	d, err := anonconsensus.JoinTCP(context.Background(), addr, v,
		anonconsensus.WithEnv(env),
		anonconsensus.WithInterval(interval),
		anonconsensus.WithTimeout(timeout),
		anonconsensus.WithReconnect(anonconsensus.ReconnectPolicy{MaxAttempts: reconnect}),
	)
	if err != nil {
		return err
	}
	if !d.Decided {
		return fmt.Errorf("undecided at timeout %s — are enough peers connected?", timeout)
	}
	fmt.Printf("decided %s in round %d\n", d.Value, d.Round)
	return nil
}
