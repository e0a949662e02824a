package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// check verifies one 200 response against the request's reference answer
// in full. It never byte-compares the two scoring endpoints against each
// other: /score and /score/stream format floats differently by design, so
// every risk is compared as float64 bits after strconv.ParseFloat.
func check(r *request, body []byte) error {
	var err error
	switch r.ep {
	case epScore:
		err = checkScore(r, body)
	case epStream:
		err = checkStream(r, body)
	case epHotspots:
		err = checkHotspots(r, body)
	case epFeedback:
		_, err = checkFeedback(r, body)
	}
	if err != nil {
		return fmt.Errorf("request %d (%s %s): %w", r.id, r.ep, r.path, err)
	}
	return nil
}

// scoreLine is one scored row as either scoring endpoint renders it.
type scoreLine struct {
	Risk       json.Number `json:"risk"`
	CrashProne *bool       `json:"crash_prone"`
}

func decodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after the JSON value")
	}
	return nil
}

// checkRow compares one returned row with its reference risk bit for bit
// and checks the crash-prone cut.
func checkRow(i int, got scoreLine, want float64) error {
	risk, err := strconv.ParseFloat(string(got.Risk), 64)
	if err != nil {
		return fmt.Errorf("row %d: risk %q: %v", i, got.Risk, err)
	}
	if math.Float64bits(risk) != math.Float64bits(want) {
		return fmt.Errorf("row %d: risk %s (bits %#x), want %v (bits %#x)",
			i, got.Risk, math.Float64bits(risk), want, math.Float64bits(want))
	}
	if got.CrashProne == nil || *got.CrashProne != (risk >= 0.5) {
		return fmt.Errorf("row %d: crash_prone %v does not match risk %v", i, got.CrashProne, risk)
	}
	return nil
}

func checkScore(r *request, body []byte) error {
	var resp struct {
		Model  string      `json:"model"`
		Kind   string      `json:"kind"`
		Scores []scoreLine `json:"scores"`
	}
	if err := decodeStrict(body, &resp); err != nil {
		return fmt.Errorf("decoding response: %v", err)
	}
	if resp.Model != r.model || resp.Kind != string(r.kind) {
		return fmt.Errorf("model %q kind %q, want %q %q", resp.Model, resp.Kind, r.model, r.kind)
	}
	if len(resp.Scores) != len(r.risks) {
		return fmt.Errorf("%d scores, want %d", len(resp.Scores), len(r.risks))
	}
	for i, s := range resp.Scores {
		if err := checkRow(i, s, r.risks[i]); err != nil {
			return err
		}
	}
	return nil
}

// checkStream requires exactly one score line per input row, in order,
// then the trailer {"done":true,"rows":N} and nothing else.
func checkStream(r *request, body []byte) error {
	if len(body) == 0 || body[len(body)-1] != '\n' {
		return fmt.Errorf("response does not end with a newline")
	}
	lines := bytes.Split(body[:len(body)-1], []byte("\n"))
	if len(lines) != len(r.risks)+1 {
		return fmt.Errorf("%d lines, want %d score lines and a trailer", len(lines), len(r.risks))
	}
	for i, line := range lines[:len(r.risks)] {
		var s scoreLine
		if err := decodeStrict(line, &s); err != nil {
			return fmt.Errorf("line %d: %v", i, err)
		}
		if err := checkRow(i, s, r.risks[i]); err != nil {
			return err
		}
	}
	trailer := fmt.Sprintf(`{"done":true,"rows":%d}`, len(r.risks))
	if got := string(lines[len(r.risks)]); got != trailer {
		return fmt.Errorf("trailer %q, want %q", got, trailer)
	}
	return nil
}

// checkHotspots requires the served ranking to equal TopCells on the
// reference surface: same cells in the same order, centers and risks
// bit for bit.
func checkHotspots(r *request, body []byte) error {
	var resp struct {
		Model  string          `json:"model"`
		Kind   string          `json:"kind"`
		Method string          `json:"method"`
		Grid   json.RawMessage `json:"grid"`
		K      int             `json:"k"`
		Cells  []struct {
			Cell int         `json:"cell"`
			XKm  json.Number `json:"x_km"`
			YKm  json.Number `json:"y_km"`
			Risk json.Number `json:"risk"`
		} `json:"cells"`
	}
	if err := decodeStrict(body, &resp); err != nil {
		return fmt.Errorf("decoding response: %v", err)
	}
	if resp.Model != r.model || resp.Kind != string(r.kind) {
		return fmt.Errorf("model %q kind %q, want %q %q", resp.Model, resp.Kind, r.model, r.kind)
	}
	if resp.K != len(r.cells) || len(resp.Cells) != len(r.cells) {
		return fmt.Errorf("k %d with %d cells, want %d", resp.K, len(resp.Cells), len(r.cells))
	}
	for i, c := range resp.Cells {
		want := r.cells[i]
		if c.Cell != want.Cell {
			return fmt.Errorf("rank %d: cell %d, want %d", i, c.Cell, want.Cell)
		}
		for _, v := range []struct {
			name string
			got  json.Number
			want float64
		}{{"x_km", c.XKm, want.XKm}, {"y_km", c.YKm, want.YKm}, {"risk", c.Risk, want.Risk}} {
			f, err := strconv.ParseFloat(string(v.got), 64)
			if err != nil || math.Float64bits(f) != math.Float64bits(v.want) {
				return fmt.Errorf("rank %d (cell %d): %s %s, want %v", i, c.Cell, v.name, v.got, v.want)
			}
		}
	}
	return nil
}

// checkFeedback requires the outcomes of a label post to account for
// every label sent, with only join outcomes: a label for a model the
// server does not know is an error, a duplicate is not (scenario segment
// ids repeat across the cycle). It returns the matched count.
func checkFeedback(r *request, body []byte) (int, error) {
	var resp struct {
		Model    string         `json:"model"`
		Outcomes map[string]int `json:"outcomes"`
		Alarm    bool           `json:"drift_alarm"`
		Promoted []string       `json:"promoted"`
	}
	if err := decodeStrict(body, &resp); err != nil {
		return 0, fmt.Errorf("decoding response: %v", err)
	}
	if resp.Model != r.model {
		return 0, fmt.Errorf("model %q, want %q", resp.Model, r.model)
	}
	sum := 0
	for outcome, n := range resp.Outcomes {
		switch {
		case outcome == "matched" || outcome == "duplicate" || outcome == "unmatched":
			sum += n
		case strings.HasPrefix(outcome, "unknown_"):
			return 0, fmt.Errorf("outcome %s for %d labels", outcome, n)
		default:
			return 0, fmt.Errorf("unexpected outcome %q", outcome)
		}
	}
	if sum != r.nlabels {
		return 0, fmt.Errorf("outcomes %v sum to %d, want the %d labels sent", resp.Outcomes, sum, r.nlabels)
	}
	return resp.Outcomes["matched"], nil
}
