package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"time"

	"roadcrash/internal/artifact"
	"roadcrash/internal/data"
	"roadcrash/internal/geo"
	"roadcrash/internal/serve"
)

// layerHomes maps each layer metric measured by in-process replay to the
// workloads whose requests run through that layer. The result line of a
// traced run must carry every per-layer metric, so a workload off that
// list reports the layer as replayed on the first listed workload's
// requests, and its report marks the value with measured_on.
var layerHomes = map[string][]string{
	"data.parse_us_per_req":             {"score-batch", "feedback-mixed"},
	"data.parse_allocs_per_req":         {"score-batch", "feedback-mixed"},
	"data.ndjson_read_us_per_req":       {"score-stream", "feedback-mixed"},
	"data.ndjson_read_allocs_per_req":   {"score-stream", "feedback-mixed"},
	"artifact.score_us_per_req":         {"score-batch", "score-stream", "feedback-mixed"},
	"artifact.score_allocs_per_req":     {"score-batch", "score-stream", "feedback-mixed"},
	"serve.render_us_per_req":           {"score-batch", "score-stream"},
	"serve.response_bytes_per_row":      {"score-batch", "score-stream"},
	"geo.topcells_us_per_req":           {"hotspots"},
	"geo.topcells_allocs_per_req":       {"hotspots"},
	"serve.hotspots_encode_us_per_req":  {"hotspots"},
	"serve.feedback_observe_us_per_req": {"feedback-mixed"},
	"serve.feedback_replay_us_per_req":  {"feedback-mixed"},
	"serve.feedback_decode_us_per_req":  {"feedback-mixed"},
	"serve.feedback_matched_ratio":      {"feedback-mixed"},
}

// replayRequests is how many scoring or hotspot requests one timed replay
// pass sends, per workload: enough for a few hundred milliseconds each.
var replayRequests = map[string]int{
	"score-batch": 64, "score-stream": 32, "hotspots": 400, "feedback-mixed": 64,
}

// sink is a reusable http.ResponseWriter for in-process replays. Unlike
// httptest.ResponseRecorder it keeps its header map and body buffer across
// requests, so allocation counts are the handler's own.
type sink struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (s *sink) Header() http.Header { return s.h }

func (s *sink) WriteHeader(code int) {
	if s.code == 0 {
		s.code = code
	}
}

func (s *sink) Write(p []byte) (int, error) {
	s.WriteHeader(http.StatusOK)
	return s.body.Write(p)
}

func (s *sink) Flush() {}

func (s *sink) reset() {
	clear(s.h)
	s.code = 0
	s.body.Reset()
}

func newHTTPRequest(r *request, body []byte) *http.Request {
	method, rd := http.MethodGet, io.Reader(nil)
	if body != nil {
		method, rd = http.MethodPost, bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, "http://bench"+r.path, rd)
	if err != nil {
		// Paths are built by this program; a bad one is a bug.
		panic(err)
	}
	return req
}

// allocs counts the heap allocations fn makes.
func allocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// layerBench replays one fixture in process, calling each layer the way
// the handler does and timing every call as a child span of its request.
type layerBench struct {
	f   *fixture
	m   *serve.Model
	srv *serve.Server
	tr  *tracer

	attrs []data.Attribute // the schema requests are parsed against
	gm    *geo.Model
	// parser and bs are reused across /score requests, as the handler
	// reuses its pooled state; stream requests get fresh ones, as there.
	parser *data.ScoreRequestParser
	bs     *artifact.BatchScorer

	sums   map[string]time.Duration // span durations by name
	counts map[endpoint]int
	rows   int
	bytes  int
	labels int
	joined int
}

// measureLayers returns the in-process layer metrics of one fixture.
func measureLayers(f *fixture, dir string, tr *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	var reg *serve.Registry
	var loads []float64
	for i := 0; i < 5; i++ {
		reg = serve.NewRegistry()
		start := time.Now()
		if _, err := reg.LoadDir(dir); err != nil {
			return nil, err
		}
		loads = append(loads, ms(time.Since(start)))
	}
	out["artifact.load_ms"] = median(loads)

	m, _ := reg.Get(f.w.model)
	cfg := serve.Config{}
	if f.w.feedback {
		cfg.FeedbackWindow = feedbackWindow
	}
	lb := &layerBench{
		f: f, m: m, srv: serve.New(reg, cfg), tr: tr, attrs: m.Mapper.Attrs(),
		sums: map[string]time.Duration{}, counts: map[endpoint]int{},
		bs: artifact.NewBatchScorerFor(m.Scorer, m.Mapper),
	}
	if f.w.feedback {
		// The feedback server parses segment_id beside the training schema.
		lb.attrs = append(append([]data.Attribute(nil), lb.attrs...),
			data.Attribute{Name: "segment_id", Kind: data.Interval})
	}
	lb.parser = data.NewScoreRequestParser(lb.attrs)
	if gm, ok := m.Scorer.(*geo.Model); ok {
		lb.gm = gm
	}

	// An untimed pass warms pools and checks every answer in full; the
	// timed pass follows with the same order.
	if err := lb.pass(len(f.cycle), false); err != nil {
		return nil, err
	}
	n := replayRequests[f.w.name]
	if err := lb.pass(n, true); err != nil {
		return nil, err
	}
	timed := lb.sums
	if err := lb.allocPass(out, n); err != nil {
		return nil, err
	}

	perReq := func(name string, eps ...endpoint) float64 {
		c := 0
		for _, ep := range eps {
			c += lb.counts[ep]
		}
		return us(timed[name]) / float64(c)
	}
	all := []endpoint{epScore, epStream, epHotspots, epFeedback}
	out["serve.replay_us_per_req"] = perReq("serve.ServeHTTP", all...)
	if lb.counts[epScore] > 0 {
		out["data.parse_us_per_req"] = perReq("data.ParseScoreRequest", epScore)
	}
	if lb.counts[epStream] > 0 {
		out["data.ndjson_read_us_per_req"] = perReq("data.NDJSONBatchReader.Next", epStream)
	}
	if scoring := lb.counts[epScore] + lb.counts[epStream]; scoring > 0 {
		out["artifact.score_us_per_req"] = perReq("artifact.BatchScorer.ScoreBatch", epScore, epStream)
		render := timed["serve.ServeHTTP.scoring"] - timed["data.ParseScoreRequest"] -
			timed["data.NDJSONBatchReader.Next"] - timed["artifact.BatchScorer.ScoreBatch"]
		out["serve.render_us_per_req"] = us(render) / float64(scoring)
		out["serve.response_bytes_per_row"] = float64(lb.bytes) / float64(lb.rows)
	}
	if lb.gm != nil {
		out["geo.topcells_us_per_req"] = perReq("geo.Model.TopCells", epHotspots)
		out["serve.hotspots_encode_us_per_req"] = perReq("json.Encoder.Encode", epHotspots)
	}
	if f.w.feedback {
		out["serve.feedback_replay_us_per_req"] = perReq("serve.ServeHTTP.feedback", epFeedback)
		out["serve.feedback_decode_us_per_req"] = perReq("json.Decoder.Decode", epFeedback)
		out["serve.feedback_matched_ratio"] = float64(lb.joined) / float64(lb.labels)
		observe, err := lb.observeCost(reg, n)
		if err != nil {
			return nil, err
		}
		out["serve.feedback_observe_us_per_req"] = observe
	}
	return out, nil
}

// pass replays n scoring or hotspot requests (with the label posts the
// sequencer interleaves) and, when timed, times each layer call. An
// untimed pass is a warm-up that checks every answer in full.
func (lb *layerBench) pass(n int, timed bool) error {
	tr := lb.tr
	seq := newSequencer(lb.f, 0, 1)
	if timed {
		lb.sums = map[string]time.Duration{}
		lb.counts = map[endpoint]int{}
		lb.rows, lb.bytes, lb.labels, lb.joined = 0, 0, 0, 0
	}
	w := &sink{h: http.Header{}}
	for sent := 0; sent < n; {
		r := seq.next()
		if r.ep != epFeedback {
			sent++
		}
		req := newHTTPRequest(r, r.body)
		w.reset()
		id := tr.newID()
		start := time.Now()
		lb.srv.ServeHTTP(w, req)
		end := time.Now()
		if w.code != http.StatusOK {
			return fmt.Errorf("replay: request %d (%s %s): status %d: %s", r.id, r.ep, r.path, w.code, bytes.TrimSpace(w.body.Bytes()))
		}
		if !timed {
			if err := check(r, w.body.Bytes()); err != nil {
				return fmt.Errorf("replay: %w", err)
			}
			seq.done(r, true)
			continue
		}
		lb.child("serve.ServeHTTP", id, start, end)
		lb.counts[r.ep]++
		switch r.ep {
		case epScore, epStream:
			lb.sums["serve.ServeHTTP.scoring"] += end.Sub(start)
			lb.sums["serve.ServeHTTP."+r.ep.String()] += end.Sub(start)
			lb.rows += r.rows
			lb.bytes += w.body.Len()
		case epFeedback:
			lb.sums["serve.ServeHTTP.feedback"] += end.Sub(start)
			matched, err := checkFeedback(r, w.body.Bytes())
			if err != nil {
				return fmt.Errorf("replay: request %d: %w", r.id, err)
			}
			lb.labels += r.nlabels
			lb.joined += matched
		}
		if err := lb.layers(r, id); err != nil {
			return err
		}
		tr.add("replay."+r.ep.String(), id, 0, id, start, time.Now())
		seq.done(r, true)
	}
	return nil
}

func (lb *layerBench) parse(r *request) (string, *data.Batch, error) {
	return data.ParseScoreRequest(r.body, serve.MaxBatch, func(string) (*data.ScoreRequestParser, error) { return lb.parser, nil })
}

// child records one layer call as a span under request id.
func (lb *layerBench) child(name string, id int64, start, end time.Time) {
	lb.sums[name] += end.Sub(start)
	lb.tr.add(name, lb.tr.newID(), id, id, start, end)
}

// layers calls, for one request, the layer functions its handler runs.
func (lb *layerBench) layers(r *request, id int64) error {
	switch r.ep {
	case epScore:
		start := time.Now()
		_, batch, err := lb.parse(r)
		mid := time.Now()
		if err != nil {
			return fmt.Errorf("parse request %d: %w", r.id, err)
		}
		if _, err := lb.bs.ScoreBatch(batch); err != nil {
			return fmt.Errorf("score request %d: %w", r.id, err)
		}
		end := time.Now()
		lb.child("data.ParseScoreRequest", id, start, mid)
		lb.child("artifact.BatchScorer.ScoreBatch", id, mid, end)
	case epStream:
		br := data.NewNDJSONBatchReader(bytes.NewReader(r.body), lb.attrs, 1024)
		bs := artifact.NewBatchScorerFor(lb.m.Scorer, lb.m.Mapper)
		for {
			start := time.Now()
			b, err := br.Next()
			mid := time.Now()
			lb.child("data.NDJSONBatchReader.Next", id, start, mid)
			if errors.Is(err, io.EOF) {
				return nil
			}
			if err != nil {
				return fmt.Errorf("read request %d: %w", r.id, err)
			}
			if _, err := bs.ScoreBatch(b); err != nil {
				return fmt.Errorf("score request %d: %w", r.id, err)
			}
			lb.child("artifact.BatchScorer.ScoreBatch", id, mid, time.Now())
		}
	case epHotspots:
		start := time.Now()
		cells := lb.gm.TopCells(hotspotK)
		mid := time.Now()
		err := json.NewEncoder(io.Discard).Encode(serve.HotspotsResponse{
			Model: r.model, Kind: r.kind, Method: lb.gm.Method, Grid: lb.gm.Grid, K: len(cells), Cells: cells,
		})
		end := time.Now()
		if err != nil {
			return err
		}
		lb.child("geo.Model.TopCells", id, start, mid)
		lb.child("json.Encoder.Encode", id, mid, end)
	case epFeedback:
		var fr serve.FeedbackRequest
		start := time.Now()
		err := json.NewDecoder(bytes.NewReader(r.body)).Decode(&fr)
		lb.child("json.Decoder.Decode", id, start, time.Now())
		if err != nil {
			return err
		}
	}
	return nil
}

// allocPass counts allocations per request for the replay and for each
// layer call, over the first n requests of the timed order.
func (lb *layerBench) allocPass(out map[string]float64, n int) error {
	seq := newSequencer(lb.f, 0, 1)
	w := &sink{h: http.Header{}}
	var replay, parse, ndjson, score, topcells uint64
	counts := map[endpoint]int{}
	var err error
	for sent := 0; sent < n && err == nil; {
		r := seq.next()
		if r.ep != epFeedback {
			sent++
		}
		counts[r.ep]++
		req := newHTTPRequest(r, r.body)
		w.reset()
		replay += allocs(func() { lb.srv.ServeHTTP(w, req) })
		seq.done(r, true)
		switch r.ep {
		case epScore:
			var batch *data.Batch
			parse += allocs(func() { _, batch, err = lb.parse(r) })
			if err == nil {
				score += allocs(func() { _, err = lb.bs.ScoreBatch(batch) })
			}
		case epStream:
			ndjson += allocs(func() {
				br := data.NewNDJSONBatchReader(bytes.NewReader(r.body), lb.attrs, 1024)
				for err == nil {
					_, err = br.Next()
				}
			})
			if errors.Is(err, io.EOF) {
				err = lb.streamScoreAllocs(r, &score)
			}
		case epHotspots:
			topcells += allocs(func() { lb.gm.TopCells(hotspotK) })
		}
	}
	if err != nil {
		return fmt.Errorf("alloc pass: %w", err)
	}
	all := counts[epScore] + counts[epStream] + counts[epHotspots] + counts[epFeedback]
	out["serve.replay_allocs_per_req"] = float64(replay) / float64(all)
	if counts[epScore] > 0 {
		out["data.parse_allocs_per_req"] = float64(parse) / float64(counts[epScore])
	}
	if counts[epStream] > 0 {
		out["data.ndjson_read_allocs_per_req"] = float64(ndjson) / float64(counts[epStream])
	}
	if scoring := counts[epScore] + counts[epStream]; scoring > 0 {
		out["artifact.score_allocs_per_req"] = float64(score) / float64(scoring)
	}
	if counts[epHotspots] > 0 {
		out["geo.topcells_allocs_per_req"] = float64(topcells) / float64(counts[epHotspots])
	}
	return nil
}

// streamScoreAllocs reads a stream body chunk by chunk and counts only
// the ScoreBatch calls' allocations.
func (lb *layerBench) streamScoreAllocs(r *request, total *uint64) error {
	br := data.NewNDJSONBatchReader(bytes.NewReader(r.body), lb.attrs, 1024)
	bs := artifact.NewBatchScorerFor(lb.m.Scorer, lb.m.Mapper)
	for {
		b, err := br.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		*total += allocs(func() { _, err = bs.ScoreBatch(b) })
		if err != nil {
			return err
		}
	}
}

// observeCost is the feedback hook's share of a /score request: its
// replay on the feedback server minus its replay on a feedback-off server
// over the same batch rendered without segment_id (the column a
// feedback-off server rejects). The two replays alternate request by
// request, so both see the same machine state; the first of two rounds
// warms the feedback-off server's pools.
func (lb *layerBench) observeCost(reg *serve.Registry, n int) (float64, error) {
	off := serve.New(reg, serve.Config{})
	w := &sink{h: http.Header{}}
	var on, offTotal time.Duration
	count := 0
	for round := 0; round < 2; round++ {
		on, offTotal, count = 0, 0, 0
		for _, r := range lb.f.cycle[:min(n, len(lb.f.cycle))] {
			if r.ep != epScore {
				continue
			}
			for _, side := range []struct {
				srv   *serve.Server
				body  []byte
				total *time.Duration
			}{{lb.srv, r.body, &on}, {off, r.noSeg, &offTotal}} {
				req := newHTTPRequest(r, side.body)
				w.reset()
				start := time.Now()
				side.srv.ServeHTTP(w, req)
				*side.total += time.Since(start)
				if w.code != http.StatusOK {
					return 0, fmt.Errorf("observe replay: request %d: status %d: %s", r.id, w.code, bytes.TrimSpace(w.body.Bytes()))
				}
			}
			count++
		}
	}
	return (us(on) - us(offTotal)) / float64(count), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sortedKeys returns a map's keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
