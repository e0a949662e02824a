package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"syscall"
	"time"
)

// sample is one completed request of a load phase.
type sample struct {
	ep      endpoint
	latency time.Duration // closed loop: send to last byte; open loop: due to last byte
	late    time.Duration // open loop: send time minus due time
	rows    int
	ok      bool
	matched int // feedback: labels the server joined
	labels  int // feedback: labels sent
}

// phase is the outcome of one load phase.
type phase struct {
	samples []sample
	elapsed time.Duration
}

func (p phase) attempted() int { return len(p.samples) }

func (p phase) failed() int {
	n := 0
	for _, s := range p.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// sequencer yields one connection's request order: the fixture's cycle
// from an offset, with each scored batch's labels queued and sent
// feedbackLag requests after it, as a labelling pipeline would. Labels of
// a failed scoring request are dropped: the server never recorded its
// scores.
type sequencer struct {
	cycle   []*request
	i       int
	pending []*request
}

func newSequencer(f *fixture, conn, conns int) *sequencer {
	return &sequencer{cycle: f.cycle, i: conn * len(f.cycle) / conns}
}

func (q *sequencer) next() *request {
	if len(q.pending) > feedbackLag {
		r := q.pending[0]
		q.pending = q.pending[1:]
		return r
	}
	r := q.cycle[q.i%len(q.cycle)]
	q.i++
	return r
}

func (q *sequencer) done(r *request, ok bool) {
	if ok && r.labels != nil {
		q.pending = append(q.pending, r.labels)
	}
}

// client sends a fixture's requests over at most conns keep-alive
// connections and checks each answer.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// errRefused marks a request the server refused or that never got an
// answer: it counts as failed, not as a wrong output.
var errRefused = errors.New("refused")

// send issues one request and returns its response body (read into buf).
// Transport errors and 429/503 answers are errRefused; any other non-200
// answer to a well-formed request is a wrong output.
func (c *client) send(ctx context.Context, r *request, buf []byte) ([]byte, error) {
	method, body := http.MethodGet, io.Reader(nil)
	if r.body != nil {
		method, body = http.MethodPost, bytes.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+r.path, body)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errRefused, err)
	}
	defer resp.Body.Close()
	buf, err = readAll(resp.Body, buf[:0])
	switch {
	case err != nil:
		return nil, fmt.Errorf("%w: reading response: %v", errRefused, err)
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		return nil, fmt.Errorf("%w: status %d", errRefused, resp.StatusCode)
	case resp.StatusCode != http.StatusOK:
		return nil, fmt.Errorf("request %d (%s %s): status %d: %s", r.id, r.ep, r.path, resp.StatusCode, bytes.TrimSpace(buf))
	}
	return buf, nil
}

// readAll reads r to EOF into buf, reusing its capacity.
func readAll(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// verify sends every distinct request of the fixture once, in order, and
// checks each answer in full. Scoring and hotspot answers are then kept:
// the load phases compare later answers to them byte for byte, which is
// exact and costs the generator a memcmp instead of a JSON decode.
func (c *client) verify(ctx context.Context, f *fixture) (map[*request][]byte, error) {
	golden := map[*request][]byte{}
	for _, r := range f.distinct {
		if r.ep == epFeedback {
			continue
		}
		body, err := c.send(ctx, r, nil)
		if err != nil {
			return nil, err
		}
		if err := check(r, body); err != nil {
			return nil, err
		}
		golden[r] = body
	}
	return golden, nil
}

// do sends one request, classifies and checks its answer. A non-nil
// error is a wrong output and ends the run.
func (c *client) do(ctx context.Context, r *request, golden map[*request][]byte, buf *[]byte) (sample, error) {
	s := sample{ep: r.ep}
	body, err := c.send(ctx, r, *buf)
	if errors.Is(err, errRefused) {
		return s, nil
	}
	if err != nil {
		return s, err
	}
	*buf = body
	switch {
	case r.ep == epFeedback:
		matched, err := checkFeedback(r, body)
		if err != nil {
			return s, fmt.Errorf("request %d (%s %s): %w", r.id, r.ep, r.path, err)
		}
		s.matched, s.labels = matched, r.nlabels
	case !bytes.Equal(body, golden[r]):
		// Locate the difference with the full check; a response that
		// passes it yet differs from the verified bytes is still wrong,
		// since every answer is deterministic.
		if err := check(r, body); err != nil {
			return s, err
		}
		return s, fmt.Errorf("request %d (%s %s): response differs from the verified answer", r.id, r.ep, r.path)
	}
	s.rows = r.rows
	s.ok = true
	return s, nil
}

// traffic runs load phases against one server.
type traffic struct {
	c      *client
	f      *fixture
	golden map[*request][]byte
	conns  int
	tr     *tracer // nil when untraced
	// seqs keeps each connection's request order across the closed
	// loop's bursts, so label posts queued in one burst go out in the
	// next. The fixed-rate phase starts them afresh.
	seqs []*sequencer
	// rng draws the closed-loop burst offsets from the traffic seed;
	// stagger is the offset range, the mean latency seen in warm-up.
	rng     *rand.Rand
	stagger time.Duration
}

// Closed-loop bursts: connections that run back to back for long drift
// into lockstep or apart on a one-CPU server and stay there for seconds,
// which moves throughput by a quarter from run to run. Many short bursts,
// each with freshly drawn start offsets, sample those alignments evenly.
const (
	closedBurst = 500 * time.Millisecond
	closedGap   = 50 * time.Millisecond
)

// timerSlack is how long before a fixed-rate request is due its sender
// stops sleeping on a runtime timer: the runtime's poller sleeps in whole
// milliseconds, so a timer alone wakes up to a millisecond late, which
// is most of a /hotspots request.
const timerSlack = 2 * time.Millisecond

// waitUntil blocks until t: on a runtime timer until timerSlack before t,
// then in a loop of sched_yield calls. The loop keeps the generator's CPU
// busy, because on a VM a halted vCPU can take milliseconds to wake, and
// it hands that CPU at once to any thread the network poller wakes. A
// runtime.Gosched loop would not: with one P the scheduler never polls
// the network while a goroutine is runnable, so the other connection's
// answer would wait for this send. The polling thread needs a P of its
// own, which is why the generator runs with one P per connection.
func waitUntil(t time.Time) {
	if d := time.Until(t) - timerSlack; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
	}
}

// closedLoop runs d of closed-loop traffic over conns connections, each
// sending its next request only once the previous one is answered, as
// bursts with random start offsets. The phase's elapsed time is the
// bursts' wall time, without the gaps. With a tracer every second burst
// records spans, so traced and untraced bursts share the host's
// conditions; those bursts come back as a separate phase.
func (dr *traffic) closedLoop(ctx context.Context, d time.Duration, tr *tracer) (untraced, traced phase, err error) {
	for i := 0; untraced.elapsed+traced.elapsed < d; i++ {
		offsets := make([]time.Duration, dr.conns)
		for k := 1; k < dr.conns; k++ {
			offsets[k] = time.Duration(dr.rng.Float64() * float64(dr.stagger))
		}
		into := &untraced
		dr.tr = nil
		if tr != nil && i%2 == 1 {
			into, dr.tr = &traced, tr
		}
		p, err := dr.run(ctx, min(closedBurst, d-untraced.elapsed-traced.elapsed), 0, offsets)
		into.samples = append(into.samples, p.samples...)
		into.elapsed += p.elapsed
		if err != nil {
			return untraced, traced, err
		}
		time.Sleep(closedGap)
	}
	return untraced, traced, nil
}

// openLoop sends at a fixed total rate for d regardless of answers: each
// connection owns every conns-th slot of one schedule, and a request's
// latency runs from when it was due, so a stall also charges the requests
// queued behind it.
//
// Every connection's sequence restarts here, dropping the labels still
// queued from the closed loop. There the connections advance at their own
// pace, so they end the loop at positions in the cycle that differ from
// run to run. On feedback-mixed that offset decides which request shape
// precedes each /score slot on the server: in half the offsets every
// other /score comes right after a 4096-row stream, and the p50 sits on
// the edge between the two modes. Fresh sequences give every run the same
// interleaving.
func (dr *traffic) openLoop(ctx context.Context, d time.Duration, rate float64) (phase, error) {
	dr.seqs = nil
	return dr.run(ctx, d, rate, nil)
}

func (dr *traffic) sequencer(k int) *sequencer {
	for len(dr.seqs) <= k {
		dr.seqs = append(dr.seqs, newSequencer(dr.f, len(dr.seqs), dr.conns))
	}
	return dr.seqs[k]
}

func (dr *traffic) run(ctx context.Context, d time.Duration, rate float64, offsets []time.Duration) (phase, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	start := time.Now()
	end := start.Add(d)
	per := make([][]sample, dr.conns)
	errs := make([]error, dr.conns)
	var wg sync.WaitGroup
	for k := 0; k < dr.conns; k++ {
		seq := dr.sequencer(k)
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			if offsets != nil {
				time.Sleep(offsets[k])
			}
			var buf []byte
			for i := 0; ; i++ {
				due := time.Now()
				if rate > 0 {
					due = start.Add(time.Duration(float64(k+dr.conns*i) / rate * float64(time.Second)))
					if !due.Before(end) {
						return
					}
					waitUntil(due)
				} else if !due.Before(end) {
					return
				}
				r := seq.next()
				sent := time.Now()
				s, err := dr.c.do(ctx, r, dr.golden, &buf)
				done := time.Now()
				if err != nil {
					errs[k] = err
					cancel()
					return
				}
				if ctx.Err() != nil {
					return
				}
				s.latency, s.late = done.Sub(due), sent.Sub(due)
				seq.done(r, s.ok)
				per[k] = append(per[k], s)
				id := dr.tr.newID()
				dr.tr.add("client."+r.ep.String(), id, 0, id, sent, done)
			}
		}(k)
	}
	wg.Wait()
	p := phase{elapsed: time.Since(start)}
	for k := range per {
		if errs[k] != nil {
			return p, errs[k]
		}
		p.samples = append(p.samples, per[k]...)
	}
	return p, nil
}
