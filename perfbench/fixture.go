package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"roadcrash/internal/artifact"
	"roadcrash/internal/core"
	"roadcrash/internal/data"
	"roadcrash/internal/geo"
	"roadcrash/internal/roadnet"
	"roadcrash/internal/serve"
)

// Model names the served artifacts carry; core.ExportArtifact derives the
// two scoring names from phase, learner and threshold.
const (
	treeModel  = "phase2-tree-cp8"
	logitModel = "phase2-logit-cp8"
	kdeModel   = "grid-kde"
)

// Study inputs are fixed so every run serves the same models; only the
// traffic seed varies between runs.
const (
	studyThreshold = 8
	kdeRows        = 60000
	kdeSeed        = 20110322
	kdeCellKm      = 3
	hotspotK       = 64
	// feedbackWindow holds every (segment, version) pair the feedback-mixed
	// bodies carry, so no score ages out before its label arrives.
	feedbackWindow = 8192
	// feedbackLag is how many requests after a scored batch its labels go.
	feedbackLag = 2
)

// endpoint is the server route a request goes to.
type endpoint int

const (
	epScore endpoint = iota
	epStream
	epHotspots
	epFeedback
)

func (e endpoint) String() string {
	return [...]string{"score", "stream", "hotspots", "feedback"}[e]
}

// request is one pre-rendered request of a workload with the reference
// answer its response is checked against.
type request struct {
	id    int // index in the fixture, named in mismatch reports
	ep    endpoint
	path  string
	body  []byte
	model string
	kind  artifact.Kind
	rows  int // rows scored, or cells returned for hotspots

	risks []float64      // score and stream: reference risk per row
	cells []geo.CellRisk // hotspots: reference ranking
	// labels is the feedback request that follows this scoring request
	// feedbackLag requests later (feedback-mixed only); nlabels is, on a
	// feedback request, the number of labels its body carries.
	labels  *request
	nlabels int

	// noSeg is the same scoring body rendered without the segment_id
	// column, for the feedback-off side of the observe-cost measurement.
	noSeg []byte
}

// fixture is one workload's served artifacts and traffic.
type fixture struct {
	w *workload
	// cycle is the order scoring and hotspot requests are sent in; feedback
	// requests ride on it through request.labels.
	cycle []*request
	// distinct lists every request the cycle and its labels reach, each
	// once, for the full verification pass.
	distinct []*request
}

// artifacts trains the three served models with public APIs at fixed
// study inputs and writes each into its own directory under dir.
func trainArtifacts(dir string) (map[string]string, error) {
	study, err := core.NewStudy(core.SmallConfig())
	if err != nil {
		return nil, fmt.Errorf("study: %w", err)
	}
	arts := map[string]*artifact.Artifact{}
	for _, learner := range []string{"tree", "logit"} {
		a, err := study.ExportArtifact(core.ExportOptions{Phase: 2, Threshold: studyThreshold, Learner: learner})
		if err != nil {
			return nil, fmt.Errorf("export %s: %w", learner, err)
		}
		arts[a.Name] = a
	}
	kde, err := fitKDE()
	if err != nil {
		return nil, err
	}
	arts[kdeModel] = kde

	dirs := map[string]string{}
	for name, a := range arts {
		d := filepath.Join(dir, name)
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
		if err := artifact.WriteFile(filepath.Join(d, name+".json"), a); err != nil {
			return nil, err
		}
		dirs[name] = d
	}
	return dirs, nil
}

// fitKDE fits the hotspot surface the way `crashprone hotspots -export`
// does: segments of a 60 000-row scenario, the first half of them as the
// training period, a KDE on 3 km cells over the study extent.
func fitKDE() (*artifact.Artifact, error) {
	scn := roadnet.DefaultScenarioOptions(kdeRows)
	scn.Seed = kdeSeed
	stream, err := roadnet.NewScenarioStream(scn)
	if err != nil {
		return nil, err
	}
	obs, err := geo.CollectSegments(stream)
	if err != nil {
		return nil, err
	}
	train, _, err := geo.SplitObservations(obs, 0.5)
	if err != nil {
		return nil, err
	}
	g, err := geo.NewGrid(0, 0, roadnet.ExtentKm, roadnet.ExtentKm, kdeCellKm)
	if err != nil {
		return nil, err
	}
	m, err := geo.FitKDE(g, train, 1, geo.DefaultKDEOptions())
	if err != nil {
		return nil, err
	}
	return artifact.New(kdeModel, artifact.KindHotspot, m, geo.Schema(), 0, kdeSeed, "cell_label", nil)
}

// loadModel reads one served artifact back the way the server does, so
// references come from the same bytes the server decodes.
func loadModel(dir, name string) (*serve.Model, error) {
	return serve.NewRegistry().LoadFile(filepath.Join(dir, name+".json"))
}

// buildFixture renders a workload's traffic from the traffic seed and
// computes every reference answer in process.
func buildFixture(w *workload, dirs map[string]string, seed uint64) (*fixture, error) {
	m, err := loadModel(dirs[w.model], w.model)
	if err != nil {
		return nil, err
	}
	f := &fixture{w: w}
	switch w.name {
	case "score-batch":
		reqs, err := scoringRequests(m, seed, epScore, 1024, 16, false)
		if err != nil {
			return nil, err
		}
		f.cycle = reqs
	case "score-stream":
		reqs, err := scoringRequests(m, seed, epStream, 4096, 8, false)
		if err != nil {
			return nil, err
		}
		f.cycle = reqs
	case "hotspots":
		gm, ok := m.Scorer.(*geo.Model)
		if !ok {
			return nil, fmt.Errorf("%s did not load as a hotspot surface", w.model)
		}
		f.cycle = []*request{{
			ep: epHotspots, path: "/hotspots?model=" + w.model + "&k=" + strconv.Itoa(hotspotK),
			model: w.model, kind: m.Artifact.Kind, cells: gm.TopCells(hotspotK),
		}}
		f.cycle[0].rows = len(f.cycle[0].cells)
	case "feedback-mixed":
		if err := f.feedbackTraffic(m, seed); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("no fixture for workload %q", w.name)
	}
	seen := map[*request]bool{}
	for _, r := range f.cycle {
		if seen[r] {
			continue
		}
		seen[r] = true
		f.distinct = append(f.distinct, r)
		if r.labels != nil {
			f.distinct = append(f.distinct, r.labels)
		}
	}
	for i, r := range f.distinct {
		r.id = i
	}
	return f, nil
}

// scoringRequests renders count requests of rows rows each from one
// scenario stream, with reference risks from a BatchScorer over the same
// generated batches.
func scoringRequests(m *serve.Model, seed uint64, ep endpoint, rows, count int, withSeg bool) ([]*request, error) {
	stream, err := scenario(seed, rows, rows*count)
	if err != nil {
		return nil, err
	}
	rf, err := newRenderer(m, stream.Attrs())
	if err != nil {
		return nil, err
	}
	var out []*request
	for {
		b, err := stream.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		r, err := rf.request(b, ep, withSeg)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
}

// feedbackTraffic builds the feedback-mixed cycle: /score bodies of 256
// rows alternating with /score/stream bodies of 4096 rows, all carrying
// segment_id, each with the label request derived from its batch. Both
// kinds come from one scenario stream, so segment ids never collide
// across bodies within one pass of the cycle.
func (f *fixture) feedbackTraffic(m *serve.Model, seed uint64) error {
	const scoreRows, streamRows, nScore, nStream = 256, 4096, 16, 4
	stream, err := scenario(seed, scoreRows, scoreRows*nScore+streamRows*nStream)
	if err != nil {
		return err
	}
	rf, err := newRenderer(m, stream.Attrs())
	if err != nil {
		return err
	}
	next := func(rows int) (*data.Batch, error) {
		// Stream bodies gather 16 consecutive 256-row chunks.
		acc := data.NewBatch(stream.Attrs(), rows)
		row := make([]float64, len(stream.Attrs()))
		for acc.Len() < rows {
			b, err := stream.Next()
			if err != nil {
				return nil, err
			}
			for i := 0; i < b.Len(); i++ {
				for j := range row {
					row[j] = b.At(i, j)
				}
				acc.AppendRow(row)
			}
		}
		return acc, nil
	}
	var scores, streams []*request
	for i := 0; i < nScore; i++ {
		b, err := next(scoreRows)
		if err != nil {
			return err
		}
		r, err := rf.request(b, epScore, true)
		if err != nil {
			return err
		}
		scores = append(scores, r)
	}
	for i := 0; i < nStream; i++ {
		b, err := next(streamRows)
		if err != nil {
			return err
		}
		r, err := rf.request(b, epStream, true)
		if err != nil {
			return err
		}
		streams = append(streams, r)
	}
	for i, s := range scores {
		f.cycle = append(f.cycle, s, streams[i%nStream])
	}
	return nil
}

// scenario opens the traffic stream of one workload: seeded by the traffic
// seed, chunked at the request row count.
func scenario(seed uint64, chunk, rows int) (*roadnet.ScenarioStream, error) {
	scn := roadnet.DefaultScenarioOptions(rows)
	scn.Seed = seed
	scn.ChunkSize = chunk
	return roadnet.NewScenarioStream(scn)
}

// renderer turns scenario batches into request bodies for one model and
// computes their reference scores.
type renderer struct {
	model   string
	kind    artifact.Kind
	attrs   []data.Attribute
	include []int // scenario columns in the model schema, target excluded
	seg     int   // segment_id column
	count   int   // crash_count column
	ref     *artifact.BatchScorer
}

func newRenderer(m *serve.Model, attrs []data.Attribute) (*renderer, error) {
	a := m.Artifact
	bs, err := artifact.NewBatchScorer(a)
	if err != nil {
		return nil, err
	}
	schema := map[string]bool{}
	for _, at := range m.Mapper.Attrs() {
		if at.Name != a.Target {
			schema[at.Name] = true
		}
	}
	rf := &renderer{model: a.Name, kind: a.Kind, attrs: attrs, ref: bs, seg: -1, count: -1}
	for j, at := range attrs {
		if schema[at.Name] {
			rf.include = append(rf.include, j)
		}
		switch at.Name {
		case roadnet.AttrSegmentID:
			rf.seg = j
		case roadnet.CrashCountAttr:
			rf.count = j
		}
	}
	if rf.seg < 0 || rf.count < 0 {
		return nil, fmt.Errorf("scenario schema lacks %s or %s", roadnet.AttrSegmentID, roadnet.CrashCountAttr)
	}
	return rf, nil
}

// request renders b as one request to ep, with reference risks.
func (rf *renderer) request(b *data.Batch, ep endpoint, withSeg bool) (*request, error) {
	scores, err := rf.ref.ScoreBatch(b)
	if err != nil {
		return nil, fmt.Errorf("reference scoring: %w", err)
	}
	r := &request{
		ep: ep, model: rf.model, kind: rf.kind, rows: b.Len(),
		risks: append([]float64(nil), scores...),
		body:  rf.body(b, ep, withSeg),
	}
	if ep == epScore {
		r.path = "/score"
	} else {
		r.path = "/score/stream?model=" + rf.model
	}
	if withSeg {
		r.noSeg = rf.body(b, ep, false)
		r.labels = rf.labelRequest(b)
	}
	return r, nil
}

func (rf *renderer) body(b *data.Batch, ep endpoint, withSeg bool) []byte {
	var out []byte
	if ep == epScore {
		out = append(out, `{"model":`...)
		out = data.AppendJSONString(out, rf.model)
		out = append(out, `,"segments":[`...)
	}
	for i := 0; i < b.Len(); i++ {
		if ep == epScore && i > 0 {
			out = append(out, ',')
		}
		out = rf.appendRow(out, b, i, withSeg)
		if ep == epStream {
			out = append(out, '\n')
		}
	}
	if ep == epScore {
		out = append(out, `]}`...)
	}
	return out
}

// appendRow renders one scenario row as a JSON object of the model's
// attributes: missing values omitted, nominal values as level names,
// binary values as booleans, numbers in shortest round-trip form so the
// server parses exactly the value the reference scored.
func (rf *renderer) appendRow(out []byte, b *data.Batch, i int, withSeg bool) []byte {
	out = append(out, '{')
	first := true
	emit := func(j int) {
		v := b.At(i, j)
		if data.IsMissing(v) {
			return
		}
		if !first {
			out = append(out, ',')
		}
		first = false
		at := rf.attrs[j]
		out = data.AppendJSONString(out, at.Name)
		out = append(out, ':')
		switch at.Kind {
		case data.Nominal:
			out = data.AppendJSONString(out, at.Levels[int(v)])
		case data.Binary:
			out = strconv.AppendBool(out, v == 1)
		default:
			out = strconv.AppendFloat(out, v, 'g', -1, 64)
		}
	}
	for _, j := range rf.include {
		emit(j)
	}
	if withSeg {
		emit(rf.seg)
	}
	return append(out, '}')
}

// labelRequest derives the batch's delayed ground truth: one label per
// segment (its year-rows are consecutive and share one crash count),
// crash-prone when the count exceeds the model's threshold.
func (rf *renderer) labelRequest(b *data.Batch) *request {
	out := []byte(`{"model":`)
	out = data.AppendJSONString(out, rf.model)
	out = append(out, `,"labels":[`...)
	n := 0
	last := -1.0
	for i := 0; i < b.Len(); i++ {
		id, count := b.At(i, rf.seg), b.At(i, rf.count)
		if data.IsMissing(id) || data.IsMissing(count) || (n > 0 && id == last) {
			continue
		}
		if n > 0 {
			out = append(out, ',')
		}
		out = append(out, `{"segment_id":`...)
		out = strconv.AppendInt(out, int64(id), 10)
		out = append(out, `,"crash_prone":`...)
		out = strconv.AppendBool(out, count > studyThreshold)
		out = append(out, '}')
		last = id
		n++
	}
	out = append(out, `]}`...)
	return &request{ep: epFeedback, path: "/feedback", body: out, model: rf.model, nlabels: n}
}
