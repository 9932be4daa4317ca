package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// conns is the number of client connections: one per CPU of the machine
// the workloads were sized on (nproc = 2), and never more.
const conns = 2

// sample is one completed operation.
type sample struct {
	op      op
	req     uint64        // request id (traced runs)
	due     time.Duration // since phase start; the send time in a closed loop
	sent    time.Duration
	done    time.Duration
	status  int
	failed  bool // non-2xx, transport error or wrong answer
	wrong   bool // wrong answer
	errText string
}

// latency is charged from the due time, so a late generator or a busy
// connection counts against the server.
func (s sample) latency() time.Duration  { return s.done - s.due }
func (s sample) service() time.Duration  { return s.done - s.sent }
func (s sample) lateness() time.Duration { return s.sent - s.due }

// client sends operations over a fixed set of keep-alive connections.
type client struct {
	base    string
	http    [conns]*http.Client
	traced  bool
	nextID  atomic.Uint64
	check   *checker
	writes  *writeSeq
	onWrite func(w *writeOp) // traced runs: the index replay right after a write
}

func newClient() *client {
	c := &client{}
	for i := range c.http {
		c.http[i] = &http.Client{
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
			Timeout: 60 * time.Second,
		}
	}
	return c
}

func (c *client) close() {
	for _, h := range c.http {
		h.CloseIdleConnections()
	}
}

// send performs one operation on connection w and checks its answer.
func (c *client) send(w int, o op, buf *bytes.Buffer, phaseStart time.Time, due time.Duration) sample {
	s := sample{op: o, due: due}
	var req *http.Request
	var err error
	if o.write != nil {
		c.writes.wait(o.write.seq)
		defer c.writes.finish(o.write.seq)
		req, err = o.write.httpRequest(c.base)
	} else {
		req, err = http.NewRequest(http.MethodPost, c.base+o.read.path, bytes.NewReader(o.read.body))
	}
	if err != nil {
		s.failed, s.errText = true, err.Error()
		return s
	}
	req.Header.Set("Content-Type", "application/json")
	if c.traced {
		s.req = c.nextID.Add(1)
		req.Header.Set(reqHeader, strconv.FormatUint(s.req, 10))
	}
	s.sent = time.Since(phaseStart)
	resp, err := c.http[w].Do(req)
	if err == nil {
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		s.status = resp.StatusCode
	}
	s.done = time.Since(phaseStart)
	switch {
	case err != nil:
		s.failed, s.errText = true, err.Error()
	case s.status/100 != 2:
		s.failed, s.errText = true, fmt.Sprintf("status %d: %s", s.status, bytes.TrimSpace(buf.Bytes()))
	case o.write != nil:
		if werr := c.check.write(o.write, buf.Bytes()); werr != nil {
			s.failed, s.wrong, s.errText = true, true, werr.Error()
		}
	default:
		if rerr := c.check.read(o.read, buf.Bytes()); rerr != nil {
			s.failed, s.wrong, s.errText = true, true, rerr.Error()
		}
	}
	if o.write != nil && !s.failed && c.onWrite != nil {
		c.onWrite(o.write)
	}
	return s
}

// openLoop sends n operations on a fixed schedule at rate ops/s over the
// connections. A due operation waits only for a free connection; the
// wait is the generator's lateness, and it counts in the latency.
func (c *client) openLoop(ops []op, rate float64) []sample {
	type job struct {
		o   op
		due time.Duration
	}
	jobs := make(chan job, len(ops)) // every job is queued up front
	for i, o := range ops {
		jobs <- job{o: o, due: time.Duration(float64(i) / rate * float64(time.Second))}
	}
	close(jobs)
	out := make([][]sample, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for j := range jobs {
				if d := j.due - time.Since(start); d > 0 {
					time.Sleep(d)
				}
				out[w] = append(out[w], c.send(w, j.o, &buf, start, j.due))
			}
		}(w)
	}
	wg.Wait()
	return merge(out)
}

// closedLoop keeps every connection busy for d: each sends its next
// operation as soon as the previous answer arrives.
func (c *client) closedLoop(next func() op, d time.Duration) ([]sample, time.Duration) {
	out := make([][]sample, conns)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Since(start) < d {
				mu.Lock()
				o := next()
				mu.Unlock()
				now := time.Since(start)
				out[w] = append(out[w], c.send(w, o, &buf, start, now))
			}
		}(w)
	}
	wg.Wait()
	return merge(out), time.Since(start)
}

func merge(parts [][]sample) []sample {
	var out []sample
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// ---- operation streams -----------------------------------------------

// stream yields a workload's operations in order. It is deterministic in
// its seed; writes are numbered in stream order.
type stream struct {
	rng   *rand.Rand
	read  func(rng *rand.Rand) *request
	every int // every k-th operation is a write (0 = read-only)
	n     int
	plan  *writePlan
}

func (s *stream) next() op {
	s.n++
	if s.every > 0 && s.n%s.every == 0 {
		return op{write: s.plan.next()}
	}
	return op{read: s.read(s.rng)}
}

func (s *stream) take(n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// hotReads draws from the population by zipf rank.
func hotReads(pop []*request, s float64, rng *rand.Rand) func(*rand.Rand) *request {
	z := newZipf(rng, s, len(pop))
	return func(*rand.Rand) *request { return pop[z.next()] }
}

// coldReads cycles through the cells in shuffled blocks, so every block
// of len(cells) reads covers each cell once. Within a cell, whose members
// are sorted by their cost proxy, the j-th visit takes the member at rank
// frac(u + j/φ) of the cell, from a random start u per cell: a
// low-discrepancy walk, so any number of visits spreads evenly over the
// cell's cost range and runs with different seeds send different
// requests with the same cost profile.
func coldReads(pop [][]*request) func(*rand.Rand) *request {
	const invPhi = 0.6180339887498949
	var order []int
	var start []float64
	visits := make([]int, len(pop))
	return func(rng *rand.Rand) *request {
		if start == nil {
			start = make([]float64, len(pop))
			for i := range start {
				start[i] = rng.Float64()
			}
		}
		if len(order) == 0 {
			order = rng.Perm(len(pop))
		}
		c := order[0]
		order = order[1:]
		x := start[c] + float64(visits[c])*invPhi
		visits[c]++
		cell := pop[c]
		return cell[int((x-math.Floor(x))*float64(len(cell)))]
	}
}

// writePlan decides the mutations: adds of fresh documents, then updates
// and deletes of earlier additions, in the repeating pattern add, add,
// update, add, delete. Targets are drawn from the documents the plan has
// added and not deleted, which exist because writes apply in order.
type writePlan struct {
	rng    *rand.Rand
	bodies []string
	seq    int
	added  int   // documents added so far
	live   []int // added and not deleted
}

var writePattern = [...]writeKind{writeAdd, writeAdd, writeUpdate, writeAdd, writeDelete}

func (p *writePlan) next() *writeOp {
	kind := writePattern[p.seq%len(writePattern)]
	if kind != writeAdd && len(p.live) == 0 {
		kind = writeAdd
	}
	w := &writeOp{seq: p.seq, kind: kind}
	p.seq++
	switch kind {
	case writeAdd:
		w.doc = p.added
		p.added++
		p.live = append(p.live, w.doc)
	case writeUpdate:
		w.doc = p.live[p.rng.Intn(len(p.live))]
	case writeDelete:
		i := p.rng.Intn(len(p.live))
		w.doc = p.live[i]
		p.live = append(p.live[:i], p.live[i+1:]...)
	}
	w.name = fmt.Sprintf("n%06d.xml", w.doc)
	if kind != writeDelete {
		w.xml = withMarker(p.bodies[w.seq%len(p.bodies)], marker(w.doc))
		if kind == writeAdd {
			w.body = mustJSON(map[string]any{"name": w.name, "xml": w.xml})
		} else {
			w.body = mustJSON(map[string]any{"xml": w.xml})
		}
	}
	return w
}

func (w *writeOp) httpRequest(base string) (*http.Request, error) {
	switch w.kind {
	case writeAdd:
		return http.NewRequest(http.MethodPost, base+"/docs", bytes.NewReader(w.body))
	case writeUpdate:
		return http.NewRequest(http.MethodPut, base+"/docs/"+w.name, bytes.NewReader(w.body))
	}
	return http.NewRequest(http.MethodDelete, base+"/docs/"+w.name, nil)
}

// writeSeq applies writes strictly in stream order across connections, so
// a delete never overtakes the add of its document.
type writeSeq struct {
	mu   sync.Mutex
	cond *sync.Cond
	next int
}

func newWriteSeq() *writeSeq {
	s := &writeSeq{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *writeSeq) wait(seq int) {
	s.mu.Lock()
	for s.next != seq {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

func (s *writeSeq) finish(seq int) {
	s.mu.Lock()
	s.next = seq + 1
	s.mu.Unlock()
	s.cond.Broadcast()
}
