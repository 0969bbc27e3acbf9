package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"strconv"
	"sync"
	"time"

	"repro/internal/serve"
)

// opKind is the class of one client operation.
type opKind uint8

const (
	opFresh    opKind = iota // submit to an instance nobody has touched
	opContend                // submit to an instance the other connection also submits to
	opQuery                  // query an instance of the pre-built journal
	opResubmit               // submit a new value to an instance of the pre-built journal
)

func (k opKind) String() string {
	return [...]string{"fresh", "contend", "query", "resubmit"}[k]
}

// op is one client operation.
type op struct {
	kind opKind
	inst string
	val  int // submitted value; unused for queries
}

// answer is the outcome of one op as the client saw it.
type answer struct {
	op     op
	node   int
	status serve.Status
	val    int
	lat    time.Duration
}

// maxAttempts bounds the re-sends of a request answered abstain or
// overload; each re-send reuses the request ID, as serve.Client does.
const maxAttempts = 5

// pipeConn is a pipelined client of the service's wire protocol: many
// requests in flight on one connection, matched to their responses by
// request ID (responses may come back in any order, since instances
// live on different shard loops).
type pipeConn struct {
	node    int
	c       net.Conn
	bw      *bufio.Writer
	enc     *json.Encoder
	dec     *json.Decoder
	prefix  string
	next    uint64
	timeout time.Duration
	gate    *pairGate // lines contended ops up with the other connections; nil: none
	side    int       // this connection's place in gate
}

func dialPipe(addr string, node int, prefix string, timeout time.Duration) (*pipeConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial node %d: %w", node, err)
	}
	bw := bufio.NewWriter(c)
	return &pipeConn{
		node: node, c: c, bw: bw,
		enc:     json.NewEncoder(bw),
		dec:     json.NewDecoder(bufio.NewReader(c)),
		prefix:  prefix,
		timeout: timeout,
	}, nil
}

func (p *pipeConn) Close() error { return p.c.Close() }

type pending struct {
	op       op
	req      serve.Request
	start    time.Time
	attempts int
	sp       span
}

// drive runs ops through the connection as a closed loop with depth
// requests in flight, calling done for every op once it has a final
// answer. An error means the connection failed; answers already handed
// to done stand.
func (p *pipeConn) drive(ops []op, depth int, tr *tracer, parent uint64, done func(answer)) error {
	defer p.gate.leave(p.side)
	inflight := make(map[string]*pending, depth)
	next := 0
	for next < len(ops) || len(inflight) > 0 {
		for len(inflight) < depth && next < len(ops) {
			o := ops[next]
			next++
			if o.kind == opContend && p.gate != nil {
				if err := p.bw.Flush(); err != nil {
					return fmt.Errorf("node %d: send: %w", p.node, err)
				}
				p.gate.arrive(p.side, next)
			}
			p.next++
			id := p.prefix + strconv.FormatUint(p.next, 36)
			pd := &pending{op: o, start: time.Now(), attempts: 1}
			pd.req = serve.Request{Op: "submit", Inst: o.inst, Req: id, Val: o.val,
				TimeoutMS: int(p.timeout / time.Millisecond)}
			if o.kind == opQuery {
				pd.req = serve.Request{Op: "query", Inst: o.inst, Req: id}
			}
			pd.sp = tr.open("svc.request", parent, 0)
			pd.sp.Req = pd.sp.ID // the request's spans share its span ID
			inflight[id] = pd
			if err := p.enc.Encode(pd.req); err != nil {
				return fmt.Errorf("node %d: send: %w", p.node, err)
			}
		}
		if err := p.bw.Flush(); err != nil {
			return fmt.Errorf("node %d: send: %w", p.node, err)
		}
		var resp serve.Response
		p.c.SetReadDeadline(time.Now().Add(3*p.timeout + 5*time.Second))
		if err := p.dec.Decode(&resp); err != nil {
			return fmt.Errorf("node %d: receive: %w", p.node, err)
		}
		pd, ok := inflight[resp.Req]
		if !ok {
			return fmt.Errorf("node %d: response for unknown request %q (status %s)", p.node, resp.Req, resp.Status)
		}
		if (resp.Status == serve.StatusAbstain || resp.Status == serve.StatusOverload) && pd.attempts < maxAttempts {
			tr.record("svc.attempt."+string(resp.Status), pd.sp.ID, pd.sp.Req, pd.start, time.Now())
			pd.attempts++
			if err := p.enc.Encode(pd.req); err != nil {
				return fmt.Errorf("node %d: resend: %w", p.node, err)
			}
			continue
		}
		delete(inflight, resp.Req)
		tr.close(pd.sp)
		done(answer{op: pd.op, node: p.node, status: resp.Status, val: resp.Val,
			lat: time.Since(pd.start)})
	}
	return nil
}

// pairGate lines up the connections of one round at each contended op:
// a connection that reaches position i of its ops waits until every
// other has reached it too, so all proposals to a contended instance
// leave within one short window and most reach their own node before a
// peer's proposal does (serve.contend_both_share). Without it the closed
// loops drift apart within a round and most contended submits arrive
// after the instance has decided, as reads. Latency is timed from the
// send, so the wait is not in it. leave on a nil *pairGate does nothing.
type pairGate struct {
	mu      sync.Mutex
	cond    *sync.Cond
	reached []int
}

func newPairGate(conns int) *pairGate {
	g := &pairGate{reached: make([]int, conns)}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// arrive marks that side has reached position i and waits for the rest.
func (g *pairGate) arrive(side, i int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.reached[side] = i
	g.cond.Broadcast()
	for g.lowest() < i {
		g.cond.Wait()
	}
}

func (g *pairGate) lowest() int {
	low := math.MaxInt
	for _, r := range g.reached {
		low = min(low, r)
	}
	return low
}

// leave releases the others for good once side has no ops left (or its
// connection failed).
func (g *pairGate) leave(side int) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.reached[side] = math.MaxInt
	g.cond.Broadcast()
	g.mu.Unlock()
}
