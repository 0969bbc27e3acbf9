package netsub

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/msgnet"
	"repro/internal/obs/hist"
)

// testConfig is a Config tuned for fast tests: tight heartbeats and
// redial so failure paths fire in milliseconds.
func testConfig() Config {
	return Config{
		HeartbeatEvery: 20 * time.Millisecond,
		WriteTimeout:   500 * time.Millisecond,
		DialTimeout:    500 * time.Millisecond,
		RedialUnit:     2 * time.Millisecond,
		FlowWindow:     25 * time.Millisecond,
	}
}

// startMesh brings up n connected loopback nodes.
func startMesh(t *testing.T, n int, tweak func(i int, c *Config)) []*Node {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		cfg := testConfig()
		cfg.Me, cfg.N, cfg.Addrs, cfg.Listener = core.PID(i), n, addrs, lns[i]
		if tweak != nil {
			tweak(i, &cfg)
		}
		nd, err := Start(cfg)
		if err != nil {
			t.Fatalf("start p%d: %v", i, err)
		}
		nodes[i] = nd
		t.Cleanup(func() { nd.Close() })
	}
	return nodes
}

// recvFrom drains until a message from the wanted sender arrives.
func recvFrom(t *testing.T, nd *Node, from core.PID, within time.Duration) msgnet.Envelope {
	t.Helper()
	deadline := nd.Clock() + int(within/time.Millisecond)
	for {
		env, ok, err := nd.RecvTimeout(deadline)
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if !ok {
			t.Fatalf("no message from p%d within %v", from, within)
		}
		if env.From == from {
			return env
		}
	}
}

func TestSendRecvAcrossTCP(t *testing.T) {
	nodes := startMesh(t, 2, nil)
	values := []core.Value{42, "hi", []byte{1, 2}, true, nil, msgnet.RoundMsg{Round: 3, Value: -7}}
	for _, v := range values {
		if err := nodes[0].Send(1, v); err != nil {
			t.Fatalf("send %v: %v", v, err)
		}
	}
	for _, want := range values {
		env := recvFrom(t, nodes[1], 0, 2*time.Second)
		if fmt.Sprint(env.Payload) != fmt.Sprint(want) {
			t.Fatalf("got %#v, want %#v", env.Payload, want)
		}
	}
	// Loopback delivery works without touching the wire.
	if err := nodes[0].Send(0, "self"); err != nil {
		t.Fatalf("self send: %v", err)
	}
	if env := recvFrom(t, nodes[0], 0, time.Second); env.Payload != "self" {
		t.Fatalf("loopback got %#v", env.Payload)
	}
}

func TestBackpressureSheds(t *testing.T) {
	// An unreachable peer leaves the writer in dial-backoff, so nothing
	// drains and the bounded queue fills; the cap+1-th send must shed
	// with a structured BackpressureError rather than block or buffer.
	nodes := startMesh(t, 2, func(i int, c *Config) {
		c.SendQueue = 4
		c.EvictAfter = -1 // isolate backpressure from eviction
		if i == 0 {
			c.Dial = func(string) (net.Conn, error) { return nil, errors.New("unreachable") }
		}
	})
	for k := 0; k < 4; k++ {
		if err := nodes[0].Send(1, k); err != nil {
			t.Fatalf("send %d within cap: %v", k, err)
		}
	}
	err := nodes[0].Send(1, 99)
	var bp *BackpressureError
	if !errors.As(err, &bp) || !errors.Is(err, ErrBackpressure) {
		t.Fatalf("want BackpressureError, got %v", err)
	}
	if bp.To != 1 || bp.Cap != 4 {
		t.Fatalf("error fields: %+v", bp)
	}
	if nodes[0].Stats().Sheds == 0 {
		t.Fatal("shed not counted")
	}
	// Broadcast survives the shed: it is a partial broadcast, not an error.
	if err := nodes[0].Broadcast("round"); err != nil {
		t.Fatalf("broadcast over congested peer: %v", err)
	}
}

func TestSlowPeerEviction(t *testing.T) {
	nodes := startMesh(t, 2, func(i int, c *Config) {
		c.SendQueue = 2
		c.EvictAfter = 3
		c.FlowWindow = 10 * time.Millisecond
		if i == 0 {
			c.Dial = func(string) (net.Conn, error) { return nil, errors.New("unreachable") }
		}
	})
	nodes[0].Send(1, "stuck-a")
	nodes[0].Send(1, "stuck-b")
	deadline := time.Now().Add(3 * time.Second)
	for !nodes[0].Evicted(1) {
		if time.Now().After(deadline) {
			t.Fatal("flow monitor never evicted the stalled peer")
		}
		time.Sleep(5 * time.Millisecond)
	}
	err := nodes[0].Send(1, "post-eviction")
	var ev *PeerEvictedError
	if !errors.As(err, &ev) || !errors.Is(err, ErrEvicted) {
		t.Fatalf("want PeerEvictedError, got %v", err)
	}
	if ev.Strikes < 3 {
		t.Fatalf("evicted after %d strikes, want >= 3", ev.Strikes)
	}
	if nodes[0].Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", nodes[0].Stats().Evictions)
	}
}

func TestHealthyPeerNotEvicted(t *testing.T) {
	// A draining queue must never accumulate strikes, no matter how many
	// windows pass.
	nodes := startMesh(t, 2, func(i int, c *Config) {
		c.FlowWindow = 5 * time.Millisecond
		c.EvictAfter = 2
	})
	stop := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(stop) {
		nodes[0].Send(1, "tick")
		recvFrom(t, nodes[1], 0, time.Second)
	}
	if nodes[0].Evicted(1) {
		t.Fatal("healthy peer was evicted")
	}
}

func TestRestartedPeerReconnects(t *testing.T) {
	nodes := startMesh(t, 2, nil)
	nodes[0].Send(1, "before")
	recvFrom(t, nodes[1], 0, 2*time.Second)

	// Kill p1 and restart it on the same address with a new incarnation:
	// p0's pool must redial and the stream must resume.
	addr := nodes[1].Addr()
	addrs := []string{nodes[0].Addr(), addr}
	nodes[1].Close()

	var restarted *Node
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		cfg := testConfig()
		cfg.Me, cfg.N, cfg.Addrs, cfg.Incarnation = 1, 2, addrs, 2
		restarted, err = Start(cfg)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond) // port may linger briefly
	}
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer restarted.Close()

	// Keep sending until a frame lands on the restarted node.
	deadline := time.Now().Add(5 * time.Second)
	for {
		nodes[0].Send(1, "after")
		env, ok, _ := restarted.RecvTimeout(restarted.Clock() + 50)
		if ok && env.Payload == "after" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted peer never heard from p0")
		}
	}
	st := nodes[0].Stats()
	if st.Reconnects == 0 {
		t.Fatalf("no reconnect recorded: %+v", st)
	}
}

func TestCloseUnblocksAndIsIdempotent(t *testing.T) {
	nodes := startMesh(t, 2, nil)
	got := make(chan error, 1)
	go func() {
		_, err := nodes[0].Recv()
		got <- err
	}()
	time.Sleep(10 * time.Millisecond)
	nodes[0].Close()
	select {
	case err := <-got:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked Recv returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv still blocked after Close")
	}
	nodes[0].Close() // idempotent
	if err := nodes[0].Send(1, "x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
}

func TestHeartbeatRTTObserved(t *testing.T) {
	reg := hist.NewRegistry()
	nodes := startMesh(t, 2, func(i int, c *Config) {
		c.HeartbeatEvery = 5 * time.Millisecond
		c.Hist = reg
	})
	_ = nodes
	deadline := time.Now().Add(2 * time.Second)
	for reg.Get("netsub_rtt_ns").Count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no RTT samples recorded")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestClockMonotonicMillis(t *testing.T) {
	nodes := startMesh(t, 2, nil)
	a := nodes[0].Clock()
	time.Sleep(20 * time.Millisecond)
	b := nodes[0].Clock()
	if b < a+10 {
		t.Fatalf("clock advanced %d ms over a 20ms sleep", b-a)
	}
}
