// Command perfbench is the repository's serving benchmark. It trains the
// served artifacts, boots a fresh `crashprone serve` built from this
// checkout, drives one workload against it from this process, checks
// every response against an in-process reference, and prints the
// metrics. Run it from the repository root through run.sh, which builds
// both binaries first:
//
//	bash perfbench/run.sh --workload score-batch --seed 1 --seconds 10 --trace 0
//
// --trace 1 adds a traced run and in-process layer replays and prints the
// per-layer metrics instead; --repeat N runs the workload N times (seeds
// seed..seed+N-1) and prints each metric's median, quartiles, range and
// relative spread. See README.md for the workloads and the metrics.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// workload is one traffic mix.
type workload struct {
	name     string
	model    string
	feedback bool
	// latencyEP is the endpoint whose requests the latency metrics take.
	// feedback-mixed interleaves four request shapes in equal numbers, so
	// a median over all of them would sit on the edge between two modes.
	latencyEP endpoint
	// rate is the fixed-rate phase's request rate, frozen at about a third
	// of the closed-loop throughput measured when the benchmark was
	// defined: at half, the host's slow periods push the server past
	// saturation and the backlog, not the server, sets the latency.
	rate float64
}

var workloads = []*workload{
	{name: "score-batch", model: treeModel, latencyEP: epScore, rate: 130},
	{name: "score-stream", model: treeModel, latencyEP: epStream, rate: 25},
	{name: "hotspots", model: kdeModel, latencyEP: epHotspots, rate: 1000},
	{name: "feedback-mixed", model: logitModel, feedback: true, latencyEP: epScore, rate: 70},
}

// metricDef is one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the gated end-to-end metrics, the ones the result line of
// an untraced run carries. On a shared two-vCPU machine these repeat
// within a tenth from run to run. Saturated closed-loop numbers move by a
// quarter or more with the host's load, and the fixed-rate tails jump
// between two modes as requests on the two connections do or do not
// overlap, so those are reported but not gated.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"fixed_rate_p50_ms", "ms"},
	{"server_cpu_ms_per_req", "ms"},
	{"server_rss_mb", "MiB"},
}

// reported are the end-to-end metrics the report line adds, with their
// sample counts: the closed-loop numbers, the tails and the failure ratio
// (zero on a healthy run, so never gated).
var reported = []metricDef{
	{"throughput_rps", "1/s"},
	{"rows_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"fixed_rate_p90_ms", "ms"},
	{"fixed_rate_tail_ms", "ms"},
	{"failed_ratio", "ratio"},
}

var perLayer = []metricDef{
	{"serve.handler_ms_mean", "ms"},
	{"serve.outside_handler_ms_mean", "ms"},
	{"serve.replay_us_per_req", "us"},
	{"serve.replay_allocs_per_req", "count"},
	{"data.parse_us_per_req", "us"},
	{"data.parse_allocs_per_req", "count"},
	{"data.ndjson_read_us_per_req", "us"},
	{"data.ndjson_read_allocs_per_req", "count"},
	{"artifact.score_us_per_req", "us"},
	{"artifact.score_allocs_per_req", "count"},
	{"serve.render_us_per_req", "us"},
	{"serve.response_bytes_per_row", "bytes"},
	{"artifact.load_ms", "ms"},
	{"geo.topcells_us_per_req", "us"},
	{"geo.topcells_allocs_per_req", "count"},
	{"serve.hotspots_encode_us_per_req", "us"},
	{"serve.feedback_observe_us_per_req", "us"},
	{"serve.feedback_replay_us_per_req", "us"},
	{"serve.feedback_decode_us_per_req", "us"},
	{"serve.feedback_matched_ratio", "ratio"},
	{"serve.metrics_scrape_ms", "ms"},
	{"serve.metrics_series", "count"},
	{"client.cpu_ms_per_req", "ms"},
	{"client.late_ms_p99", "ms"},
	{"trace.overhead_ms_per_req", "ms"},
}

const (
	buildDir   = ".bench_build"
	serverBin  = buildDir + "/crashprone"
	setupBoots = 15
	bootGap    = 100 * time.Millisecond
	warmup     = 500 * time.Millisecond
)

type options struct {
	workload *workload
	seed     uint64
	seconds  int
	trace    bool
	repeat   int
	conns    int
	pin      pinning
}

// pinning records where the server and the generator run, and how many
// CPUs the benchmark was given before pinning.
type pinning struct {
	Server string `json:"server_cpus"`
	Client string `json:"client_cpus"`
	NProc  int    `json:"-"`
}

func main() {
	opt, err := parseFlags()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	opt.pin = pin()
	opt.conns = opt.pin.NProc
	// One P per connection, even on the generator's one pinned CPU: see
	// waitUntil.
	runtime.GOMAXPROCS(opt.conns)
	go func() {
		// On SIGINT/SIGTERM stop the running server before exiting.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		live.stopAll()
		os.Exit(1)
	}()
	if err := run(opt); err != nil {
		live.stopAll()
		fmt.Fprintf(os.Stderr, "perfbench: workload %s: %v\n", opt.workload.name, err)
		os.Exit(1)
	}
}

func parseFlags() (options, error) {
	var opt options
	name := flag.String("workload", "", "workload to run: score-batch, score-stream, hotspots or feedback-mixed")
	seed := flag.Uint64("seed", 1, "traffic seed")
	flag.IntVar(&opt.seconds, "seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	flag.IntVar(&opt.repeat, "repeat", 0, "run N times with seeds seed..seed+N-1 and report each metric's spread")
	flag.Parse()
	opt.workload = workloadNamed(*name)
	switch {
	case opt.workload == nil:
		return opt, fmt.Errorf("unknown workload %q", *name)
	case opt.seconds < 1:
		return opt, fmt.Errorf("--seconds must be at least 1")
	case *trace != 0 && *trace != 1:
		return opt, fmt.Errorf("--trace must be 0 or 1")
	}
	opt.seed, opt.trace = *seed, *trace == 1
	return opt, nil
}

// pin re-executes this program under taskset on the second allowed CPU
// and reserves the first for the server, so generator and server never
// share a core. Without taskset or a second CPU it runs unpinned.
func pin() pinning {
	if s := os.Getenv("PERFBENCH_SERVER_CPUS"); s != "" {
		n, _ := strconv.Atoi(os.Getenv("PERFBENCH_NPROC"))
		return pinning{Server: s, Client: os.Getenv("PERFBENCH_CLIENT_CPUS"), NProc: max(n, 1)}
	}
	unpinned := pinning{NProc: runtime.NumCPU()}
	allowed, err := procStatus("self", "Cpus_allowed_list")
	if err != nil {
		return unpinned
	}
	cpus, err := cpuList(allowed)
	taskset, lerr := exec.LookPath("taskset")
	self, serr := os.Executable()
	if err != nil || lerr != nil || serr != nil || len(cpus) < 2 {
		return unpinned
	}
	server, client := strconv.Itoa(cpus[0]), strconv.Itoa(cpus[1])
	env := append(os.Environ(), "PERFBENCH_SERVER_CPUS="+server, "PERFBENCH_CLIENT_CPUS="+client,
		"PERFBENCH_NPROC="+strconv.Itoa(len(cpus)))
	args := append([]string{"taskset", "-c", client, self}, os.Args[1:]...)
	err = syscall.Exec(taskset, args, env)
	// Exec returns only on failure; run unpinned then.
	fmt.Fprintln(os.Stderr, "perfbench: running unpinned:", err)
	return unpinned
}

// liveServers tracks running children so a signal can stop them.
type liveServers struct {
	mu sync.Mutex
	s  map[*server]bool
}

var live = &liveServers{s: map[*server]bool{}}

func (l *liveServers) add(s *server) {
	l.mu.Lock()
	l.s[s] = true
	l.mu.Unlock()
}

func (l *liveServers) stop(s *server) {
	l.mu.Lock()
	delete(l.s, s)
	l.mu.Unlock()
	s.stop()
}

func (l *liveServers) stopAll() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for s := range l.s {
		s.stop()
	}
}

func run(opt options) error {
	if _, err := os.Stat(serverBin); err != nil {
		return fmt.Errorf("no server binary (build it with perfbench/run.sh): %w", err)
	}
	if opt.repeat > 0 {
		return repeat(opt)
	}
	res, err := runOnce(opt)
	if err != nil {
		return err
	}
	return res.print(opt)
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	values            map[string]float64
	samples           map[string]int
	// measuredOn names, for a layer metric off this workload's path, the
	// workload whose requests it was replayed on.
	measuredOn map[string]string
	meta       map[string]any
}

func (r *result) set(name string, v float64, samples int) {
	r.values[name] = v
	r.samples[name] = samples
}

// runOnce performs one full run: set-up, the verification pass, warm-up
// and the measured phases against a fresh server.
func runOnce(opt options) (*result, error) {
	w := opt.workload
	tmp := filepath.Join(buildDir, "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	dirs, err := trainArtifacts(tmp)
	if err != nil {
		return nil, fmt.Errorf("training artifacts: %w", err)
	}
	f, err := buildFixture(w, dirs, opt.seed)
	if err != nil {
		return nil, err
	}
	res := &result{values: map[string]float64{}, samples: map[string]int{}, measuredOn: map[string]string{}}

	// A fresh server serves the run, so no state carries over from
	// another run. Its boot is the first setup_s sample.
	srv, d, err := startServer(serverBin, opt.pin.Server, dirs[w.model], w.feedback, 1)
	if err != nil {
		return nil, err
	}
	live.add(srv)
	defer live.stop(srv)
	boots := []float64{d.Seconds()}
	fail := func(err error) (*result, error) {
		return nil, fmt.Errorf("%w\nserver stderr:\n%s", err, srv.stderr.String())
	}

	ctx := context.Background()
	c := newClient(srv.base, opt.conns)
	defer c.close()
	golden, err := c.verify(ctx, f)
	if err != nil {
		return fail(err)
	}
	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	dr := &traffic{c: c, f: f, golden: golden, conns: opt.conns, rng: rand.New(rand.NewSource(int64(opt.seed)))}
	warm, err := dr.run(ctx, warmup, 0, nil)
	if err != nil {
		return fail(err)
	}
	dr.stagger = time.Duration(mean(latencies(warm, func(sample) bool { return true })) * float64(time.Millisecond))

	// The closed loop comes first and the fixed-rate phase, which carries
	// the gated metrics, gets the larger share of the run.
	total := time.Duration(opt.seconds) * time.Second
	closedD, openD := total*4/10, total*6/10
	before, err := scrapeMetrics(srv.base)
	if err != nil {
		return fail(err)
	}
	var ru0, ru1 syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
	closed, tracedClosed, err := dr.closedLoop(ctx, closedD, tr)
	if err != nil {
		return fail(err)
	}
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	after, err := scrapeMetrics(srv.base)
	if err != nil {
		return fail(err)
	}
	dr.tr = tr // a traced run records the fixed-rate requests' spans too
	ticks0, err := cpuTicks(srv.pid())
	if err != nil {
		return fail(err)
	}
	open, err := dr.openLoop(ctx, openD, w.rate)
	if err != nil {
		return fail(err)
	}
	ticks1, err := cpuTicks(srv.pid())
	if err != nil {
		return fail(err)
	}
	rss, err := peakRSSMB(srv.pid())
	if err != nil {
		return fail(err)
	}
	var scrapes []float64
	var last scrape
	for i := 0; i < 5; i++ {
		if last, err = scrapeMetrics(srv.base); err != nil {
			return fail(err)
		}
		scrapes = append(scrapes, ms(last.elapsed))
	}
	serverProcs := 0
	if list, err := procStatus(strconv.Itoa(srv.pid()), "Cpus_allowed_list"); err == nil {
		cpus, _ := cpuList(list)
		serverProcs = len(cpus)
	}
	c.close()
	live.stop(srv)

	// The other setup_s samples come after the measured phases, bootGap
	// apart. Boot times shift between levels (5, 7, 9 ms) that each last
	// a few hundred milliseconds, so back-to-back boots would sample one
	// level and the median would move with it from run to run.
	for len(boots) < setupBoots {
		time.Sleep(bootGap)
		s, d, err := startServer(serverBin, opt.pin.Server, dirs[w.model], w.feedback, 1)
		if err != nil {
			return nil, err
		}
		live.add(s)
		live.stop(s)
		boots = append(boots, d.Seconds())
	}
	res.set("setup_s", median(boots), len(boots))

	phases := []phase{closed, tracedClosed, open}
	for _, p := range phases {
		res.attempted += p.attempted()
		res.failed += p.failed()
	}
	res.set("failed_ratio", float64(res.failed)/float64(res.attempted), res.attempted)
	tails := endToEndMetrics(res, w, closed, open)
	serverCPU := time.Duration(ticks1-ticks0) * clockTick
	res.set("server_cpu_ms_per_req", ms(serverCPU)/float64(open.attempted()), open.attempted())
	res.set("server_rss_mb", rss, 1)
	res.meta = map[string]any{
		"perfbench":     1,
		"workload":      w.name,
		"seed":          opt.seed,
		"seconds":       opt.seconds,
		"trace":         opt.trace,
		"connections":   opt.conns,
		"nproc":         opt.pin.NProc,
		"gomaxprocs":    map[string]int{"client": runtime.GOMAXPROCS(0), "server": serverProcs},
		"pinning":       opt.pin,
		"go_version":    runtime.Version(),
		"source":        sourceID(),
		"fixed_rate":    w.rate,
		"tail":          tails,
		"phase_seconds": map[string]float64{"closed": closed.elapsed.Seconds(), "fixed_rate": open.elapsed.Seconds()},
	}
	if !opt.trace {
		return res, nil
	}

	// Per-layer metrics from the load phases.
	handlerSum, handlerCount := after.handlerTime()
	sum0, count0 := before.handlerTime()
	handlerMS := (handlerSum - sum0) / (handlerCount - count0) * 1000
	res.set("serve.handler_ms_mean", handlerMS, int(handlerCount-count0))
	admitted := latencies(closed, func(s sample) bool { return s.ep != epFeedback })
	res.set("serve.outside_handler_ms_mean", mean(admitted)-handlerMS, len(admitted))
	clientCPU := time.Duration(ru1.Utime.Nano()+ru1.Stime.Nano()-ru0.Utime.Nano()-ru0.Stime.Nano()) * time.Nanosecond
	closedReqs := closed.attempted() + tracedClosed.attempted()
	res.set("client.cpu_ms_per_req", ms(clientCPU)/float64(closedReqs), closedReqs)
	lates := make([]float64, 0, len(open.samples))
	for _, s := range open.samples {
		lates = append(lates, ms(s.late))
	}
	sort.Float64s(lates)
	res.set("client.late_ms_p99", percentile(lates, 0.99), len(lates))
	all := func(sample) bool { return true }
	traced, untraced := latencies(tracedClosed, all), latencies(closed, all)
	res.set("trace.overhead_ms_per_req", mean(traced)-mean(untraced), len(traced))
	res.set("serve.metrics_scrape_ms", median(scrapes), len(scrapes))
	res.set("serve.metrics_series", float64(len(last.series)), 1)

	// Per-layer metrics from in-process replays of this workload's
	// requests. A layer off its path is replayed on the first workload
	// layerHomes lists for it, and the report says so in measured_on.
	layers, err := measureLayers(f, dirs[w.model], tr)
	if err != nil {
		return nil, err
	}
	for name, v := range layers {
		res.set(name, v, replayRequests[w.name])
	}
	borrowed := map[string]map[string]float64{}
	for _, name := range sortedKeys(layerHomes) {
		home := layerHomes[name][0]
		if contains(layerHomes[name], w.name) {
			continue
		}
		if borrowed[home] == nil {
			hw := workloadNamed(home)
			hf, err := buildFixture(hw, dirs, opt.seed)
			if err != nil {
				return nil, err
			}
			if borrowed[home], err = measureLayers(hf, dirs[hw.model], tr); err != nil {
				return nil, err
			}
		}
		res.set(name, borrowed[home][name], replayRequests[home])
		res.measuredOn[name] = home
	}
	if w.feedback {
		matched, labels := 0, 0
		for _, p := range phases {
			for _, s := range p.samples {
				matched += s.matched
				labels += s.labels
			}
		}
		res.set("serve.feedback_matched_ratio", float64(matched)/float64(labels), labels)
	}
	if err := os.MkdirAll(filepath.Join(buildDir, "trace"), 0o755); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(buildDir, "trace", w.name+".jsonl")
	if err := tr.write(tracePath); err != nil {
		return nil, err
	}
	res.meta["trace_file"] = tracePath
	res.meta["spans"] = len(tr.spans)
	return res, nil
}

// endToEndMetrics derives the user-facing metrics from the closed-loop
// and fixed-rate phases and returns the tail quantile each phase
// supported.
func endToEndMetrics(res *result, w *workload, closed, open phase) map[string]string {
	ok, rows := 0, 0
	for _, s := range closed.samples {
		if s.ok {
			ok++
			rows += s.rows
		}
	}
	secs := closed.elapsed.Seconds()
	res.set("throughput_rps", float64(ok)/secs, ok)
	res.set("rows_per_s", float64(rows)/secs, ok)
	onEP := func(s sample) bool { return s.ep == w.latencyEP }
	lat := latencies(closed, onEP)
	sort.Float64s(lat)
	tail := tailQuantile(len(lat))
	res.set("latency_p50_ms", percentile(lat, 0.5), len(lat))
	res.set("latency_p90_ms", percentile(lat, 0.9), len(lat))
	res.set("latency_tail_ms", percentile(lat, tail), len(lat))
	fixed := latencies(open, onEP)
	sort.Float64s(fixed)
	fixedTail := tailQuantile(len(fixed))
	res.set("fixed_rate_p50_ms", percentile(fixed, 0.5), len(fixed))
	res.set("fixed_rate_p90_ms", percentile(fixed, 0.9), len(fixed))
	res.set("fixed_rate_tail_ms", percentile(fixed, fixedTail), len(fixed))
	return map[string]string{"closed": quantileName(tail), "fixed_rate": quantileName(fixedTail)}
}

// latencies returns the latencies, in ms, of a phase's answered requests
// that keep passes.
func latencies(p phase, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range p.samples {
		if s.ok && keep(s) {
			out = append(out, ms(s.latency))
		}
	}
	return out
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func workloadNamed(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

func quantileName(q float64) string { return "p" + strconv.Itoa(int(q*100+0.5)) }

// sourceID names the code under test: the git commit when the checkout is
// a repository, and always a digest of the module's Go sources.
func sourceID() map[string]string {
	id := map[string]string{}
	// Only a checkout with its own .git is asked, so git never reads a
	// repository above the checkout.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			id["commit"] = string(bytes.TrimSpace(out))
		}
	}
	h := sha256.New()
	for _, root := range []string{"go.mod", "cmd", "internal"} {
		filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return nil
			}
			f, err := os.Open(path)
			if err != nil {
				return nil
			}
			defer f.Close()
			fmt.Fprintf(h, "%s\x00", path)
			io.Copy(h, f)
			return nil
		})
	}
	id["source_sha256"] = hex.EncodeToString(h.Sum(nil))[:16]
	return id
}

// print writes the run's full report, then the result line: one JSON
// object with the end-to-end metrics, or the per-layer ones when traced.
func (r *result) print(opt options) error {
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	report := map[string]any{}
	for k, v := range r.meta {
		report[k] = v
	}
	detail := map[string]any{}
	for _, d := range allMetrics() {
		if v, ok := r.values[d.name]; ok {
			m := map[string]any{"value": v, "unit": d.unit, "samples": r.samples[d.name]}
			if on, ok := r.measuredOn[d.name]; ok {
				m["measured_on"] = on
			}
			detail[d.name] = m
		}
	}
	report["metrics"] = detail
	report["attempted"], report["failed"] = r.attempted, r.failed
	if err := printJSON(report); err != nil {
		return err
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	return printJSON(map[string]any{
		"correct": true, "attempted": r.attempted, "failed": r.failed, "metrics": metrics,
	})
}

func allMetrics() []metricDef {
	return append(append(append([]metricDef(nil), endToEnd...), reported...), perLayer...)
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// repeat runs the workload opt.repeat times, one seed after another, and
// prints each metric's median, quartiles (as Python's
// statistics.quantiles(n=4) computes them), range and relative spread.
func repeat(opt options) error {
	runs := map[string][]float64{}
	n := opt.repeat
	for i := 0; i < n; i++ {
		o := opt
		o.seed = opt.seed + uint64(i)
		res, err := runOnce(o)
		if err != nil {
			return err
		}
		if err := res.print(o); err != nil {
			return err
		}
		for name, v := range res.values {
			runs[name] = append(runs[name], v)
		}
	}
	units := map[string]string{}
	for _, d := range allMetrics() {
		units[d.name] = d.unit
	}
	summary := map[string]any{}
	for _, name := range sortedKeys(runs) {
		v := runs[name]
		q1, q2, q3 := quartiles(v)
		lo, hi := v[0], v[0]
		for _, x := range v {
			lo, hi = min(lo, x), max(hi, x)
		}
		// A metric whose median is 0 (failed_ratio on a healthy run) has
		// no relative spread; JSON null says so.
		var spread any
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		summary[name] = map[string]any{
			"unit": units[name], "runs": len(v), "median": q2, "q1": q1, "q3": q3,
			"min": lo, "max": hi, "spread": spread,
		}
	}
	if len(summary) == 0 {
		return errors.New("no runs")
	}
	return printJSON(map[string]any{"workload": opt.workload.name, "first_seed": opt.seed, "steadiness": summary})
}
