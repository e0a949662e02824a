package main

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"roadcrash/internal/artifact"
	"roadcrash/internal/geo"
	"roadcrash/internal/serve"
)

// renderScores renders risks the way /score does (risk as given, so a
// test can plant a wrong value).
func renderScores(model string, kind artifact.Kind, risks []float64) []byte {
	b := []byte(`{"model":"` + model + `","kind":"` + string(kind) + `","scores":[`)
	for i, r := range risks {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"risk":`...)
		b = strconv.AppendFloat(b, r, 'g', -1, 64)
		b = append(b, `,"crash_prone":`...)
		b = strconv.AppendBool(b, r >= 0.5)
		b = append(b, '}')
	}
	return append(b, "]}\n"...)
}

func renderStream(risks []float64, trailer bool) []byte {
	var b []byte
	for _, r := range risks {
		b = append(b, `{"risk":`...)
		b = strconv.AppendFloat(b, r, 'g', -1, 64)
		b = append(b, `,"crash_prone":`...)
		b = strconv.AppendBool(b, r >= 0.5)
		b = append(b, "}\n"...)
	}
	if trailer {
		b = append(b, fmt.Sprintf("{\"done\":true,\"rows\":%d}\n", len(risks))...)
	}
	return b
}

var testRisks = []float64{0.125, 0.5, 0.9375, 1e-05}

func TestCheckScoreCatchesWrongRiskBit(t *testing.T) {
	r := &request{ep: epScore, path: "/score", model: "m", kind: artifact.KindDecisionTree, risks: testRisks}
	if err := check(r, renderScores("m", artifact.KindDecisionTree, testRisks)); err != nil {
		t.Fatalf("correct response rejected: %v", err)
	}
	planted := append([]float64(nil), testRisks...)
	planted[2] = math.Float64frombits(math.Float64bits(planted[2]) ^ 1)
	err := check(r, renderScores("m", artifact.KindDecisionTree, planted))
	if err == nil || !strings.Contains(err.Error(), "row 2") {
		t.Fatalf("one-bit risk error not caught: %v", err)
	}
}

func TestCheckScoreCatchesShapeErrors(t *testing.T) {
	r := &request{ep: epScore, path: "/score", model: "m", kind: artifact.KindDecisionTree, risks: testRisks}
	good := string(renderScores("m", artifact.KindDecisionTree, testRisks))
	for name, body := range map[string]string{
		"wrong model":      strings.Replace(good, `"model":"m"`, `"model":"n"`, 1),
		"wrong kind":       strings.Replace(good, `"decision-tree"`, `"logistic"`, 1),
		"missing row":      string(renderScores("m", artifact.KindDecisionTree, testRisks[:3])),
		"wrong cut":        strings.Replace(good, `"risk":0.5,"crash_prone":true`, `"risk":0.5,"crash_prone":false`, 1),
		"trailing garbage": good + "{}",
	} {
		if err := check(r, []byte(body)); err == nil {
			t.Errorf("%s: not caught", name)
		}
	}
}

func TestCheckStreamCatchesMissingTrailer(t *testing.T) {
	r := &request{ep: epStream, path: "/score/stream?model=m", risks: testRisks}
	if err := check(r, renderStream(testRisks, true)); err != nil {
		t.Fatalf("correct stream rejected: %v", err)
	}
	if err := check(r, renderStream(testRisks, false)); err == nil {
		t.Fatal("missing trailer not caught")
	}
	withError := strings.Replace(string(renderStream(testRisks, true)), `"rows":4}`, `"rows":4,"error":"x"}`, 1)
	if err := check(r, []byte(withError)); err == nil {
		t.Fatal("trailer with an error not caught")
	}
	if err := check(r, renderStream(testRisks[:3], true)); err == nil {
		t.Fatal("short stream not caught")
	}
}

func TestCheckHotspotsCatchesSwappedCell(t *testing.T) {
	g, err := geo.NewGrid(0, 0, 12, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := &geo.Model{Grid: g, Method: geo.MethodKDE, Risk: make([]float64, g.Cells())}
	for i := range m.Risk {
		m.Risk[i] = float64(i%7) / 10
	}
	cells := m.TopCells(5)
	r := &request{ep: epHotspots, path: "/hotspots", model: "grid", kind: artifact.KindHotspot, cells: cells}
	render := func(cells []geo.CellRisk) []byte {
		b := []byte(`{"model":"grid","kind":"hotspot","method":"kde","grid":{},"k":` + strconv.Itoa(len(cells)) + `,"cells":[`)
		for i, c := range cells {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, fmt.Sprintf(`{"cell":%d,"x_km":%v,"y_km":%v,"risk":%v}`, c.Cell, c.XKm, c.YKm, c.Risk)...)
		}
		return append(b, "]}\n"...)
	}
	if err := check(r, render(cells)); err != nil {
		t.Fatalf("correct ranking rejected: %v", err)
	}
	swapped := append([]geo.CellRisk(nil), cells...)
	swapped[1], swapped[2] = swapped[2], swapped[1]
	if err := check(r, render(swapped)); err == nil {
		t.Fatal("swapped cells not caught")
	}
}

func TestCheckFeedbackOutcomes(t *testing.T) {
	r := &request{ep: epFeedback, path: "/feedback", model: "m", nlabels: 5}
	matched, err := checkFeedback(r, []byte(`{"model":"m","outcomes":{"matched":3,"duplicate":2},"drift_alarm":false}`))
	if err != nil || matched != 3 {
		t.Fatalf("matched %d, err %v", matched, err)
	}
	for _, body := range []string{
		`{"model":"m","outcomes":{"matched":3},"drift_alarm":false}`,
		`{"model":"m","outcomes":{"matched":3,"unknown_model":2},"drift_alarm":false}`,
		`{"model":"n","outcomes":{"matched":5},"drift_alarm":false}`,
	} {
		if _, err := checkFeedback(r, []byte(body)); err == nil {
			t.Errorf("%s: not caught", body)
		}
	}
}

func TestSequencerSendsLabelsTwoRequestsLater(t *testing.T) {
	fa, fb := &request{ep: epFeedback, id: 10}, &request{ep: epFeedback, id: 11}
	a := &request{ep: epScore, id: 0, labels: fa}
	b := &request{ep: epStream, id: 1, labels: fb}
	q := newSequencer(&fixture{cycle: []*request{a, b}}, 0, 1)
	var got []int
	for i := 0; i < 8; i++ {
		r := q.next()
		got = append(got, r.id)
		q.done(r, true)
	}
	want := []int{0, 1, 0, 10, 1, 11, 0, 10}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v %v", q1, q2, q3)
	}
}

// TestReferenceMatchesServer renders every workload's traffic and checks
// it against an in-process server loaded from the same artifacts: the
// output check must pass on a correct server.
func TestReferenceMatchesServer(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the served artifacts")
	}
	dirs, err := trainArtifacts(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			f, err := buildFixture(w, dirs, 7)
			if err != nil {
				t.Fatal(err)
			}
			reg := serve.NewRegistry()
			if _, err := reg.LoadDir(dirs[w.model]); err != nil {
				t.Fatal(err)
			}
			cfg := serve.Config{}
			if w.feedback {
				cfg.FeedbackWindow = feedbackWindow
			}
			ts := httptest.NewServer(serve.New(reg, cfg))
			defer ts.Close()
			c := newClient(ts.URL, 1)
			defer c.close()
			golden, err := c.verify(context.Background(), f)
			if err != nil {
				t.Fatal(err)
			}
			// Six requests reach every path of the load phases: the byte
			// comparison on both scoring endpoints and, on feedback-mixed,
			// label posts.
			var buf []byte
			q := newSequencer(f, 0, 1)
			for i := 0; i < 6; i++ {
				r := q.next()
				s, err := c.do(context.Background(), r, golden, &buf)
				if err != nil || !s.ok {
					t.Fatalf("request %d: ok %v, err %v", r.id, s.ok, err)
				}
				q.done(r, s.ok)
			}
		})
	}
}
