package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, linked to the span that caused it.
// Spans of one serve job share its job ID.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"` // 0 = root
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Rank    int    `json:"rank"` // -1 when the span belongs to no rank
	Job     string `json:"job,omitempty"`
	StartNS int64  `json:"start_ns"` // since the tracer was created
	EndNS   int64  `json:"end_ns"`
}

// phase is time a program's own telemetry timer measured inside a span:
// its total over the run, attributed to the named parent span or phase.
type phase struct {
	Name    string
	Layer   string
	Parent  string
	TotalNS int64
	Count   int64
	// Overlaps marks a timer that also runs inside sibling phases, so its
	// time is not taken off its parent's self time.
	Overlaps bool
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	phases []phase
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// liveSpan is a span that has begun; end records it. It is a value, so
// tracing a call adds no heap allocation of its own to the counts the
// traced run reports.
type liveSpan struct {
	tr *tracer
	s  span
}

// begin starts a span under parent (0 for a root).
func (t *tracer) begin(name, layer string, parent int64, rank int, job string) liveSpan {
	if t == nil {
		return liveSpan{}
	}
	t.mu.Lock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id}) // reserve the ID
	t.mu.Unlock()
	return liveSpan{tr: t, s: span{
		ID: id, Parent: parent, Name: name, Layer: layer, Rank: rank, Job: job,
		StartNS: int64(time.Since(t.t0)),
	}}
}

// id returns the span's ID for use as a parent (0 when not tracing).
func (l liveSpan) id() int64 { return l.s.ID }

// setJob labels the span with the serve job it belongs to.
func (l *liveSpan) setJob(id string) { l.s.Job = id }

func (l liveSpan) end() {
	if l.tr == nil {
		return
	}
	l.s.EndNS = int64(time.Since(l.tr.t0))
	l.tr.mu.Lock()
	l.tr.spans[l.s.ID-1] = l.s
	l.tr.mu.Unlock()
}

// addPhase attributes a telemetry timer's total to a parent span name.
func (t *tracer) addPhase(ph phase) {
	if t == nil || ph.TotalNS == 0 {
		return
	}
	t.mu.Lock()
	t.phases = append(t.phases, ph)
	t.mu.Unlock()
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	Name     string
	Layer    string
	Parent   string
	TotalNS  int64
	SelfNS   int64
	Count    int64
	Overlaps bool
}

// rows aggregates spans by name and adds the phases. Spans recorded on
// concurrent lanes (ranks, or serve clients) are averaged over the lanes,
// so every level of the tree is in wall time: a row's self time is its
// total minus the totals of its children, and the root span's self time is
// the part of the run's wall time no layer accounts for.
func (t *tracer) rows() (rows []layerRow, wallNS int64) {
	byID := make(map[int64]span, len(t.spans))
	for _, s := range t.spans {
		byID[s.ID] = s
	}
	idx := map[string]int{}
	lanes := map[string]map[int]bool{}
	add := func(name, layer, parent string, total, count int64, overlaps bool) {
		i, ok := idx[name]
		if !ok {
			i = len(rows)
			idx[name] = i
			rows = append(rows, layerRow{Name: name, Layer: layer, Parent: parent, Overlaps: overlaps})
			lanes[name] = map[int]bool{}
		}
		rows[i].TotalNS += total
		rows[i].Count += count
	}
	for _, s := range t.spans {
		if s.EndNS == 0 {
			continue // never ended
		}
		parent := ""
		dur := s.EndNS - s.StartNS
		if p, ok := byID[s.Parent]; ok {
			// A child accounts only for the part of its interval inside
			// its parent's (a serve attempt can start while the submit
			// that caused it is still in flight).
			parent = p.Name
			dur = max(0, min(s.EndNS, p.EndNS)-max(s.StartNS, p.StartNS))
		} else {
			wallNS += dur
		}
		add(s.Name, s.Layer, parent, dur, 1, false)
		lanes[s.Name][s.Rank] = true
	}
	for i := range rows {
		rows[i].TotalNS /= int64(len(lanes[rows[i].Name]))
	}
	for _, ph := range t.phases {
		add(ph.Name, ph.Layer, ph.Parent, ph.TotalNS, ph.Count, ph.Overlaps)
	}
	for i := range rows {
		rows[i].SelfNS = rows[i].TotalNS
	}
	for _, r := range rows {
		if j, ok := idx[r.Parent]; ok && r.Parent != r.Name && !r.Overlaps {
			rows[j].SelfNS -= r.TotalNS
		}
	}
	return rows, wallNS
}

// table renders the per-layer markdown table: self time, share of wall
// time, and counts, with the unaccounted remainder last.
func (t *tracer) table(w io.Writer) {
	rows, wall := t.rows()
	var unaccounted int64
	var body []layerRow
	for _, r := range rows {
		if r.Parent == "" {
			unaccounted += r.SelfNS
			continue
		}
		body = append(body, r)
	}
	sort.SliceStable(body, func(i, j int) bool { return body[i].SelfNS > body[j].SelfNS })
	share := func(ns int64) float64 { return float64(ns) / float64(max(wall, 1)) }
	fmt.Fprintf(w, "| layer | span or phase | parent | self ms | share of wall | count |\n")
	fmt.Fprintf(w, "|---|---|---|---:|---:|---:|\n")
	for _, r := range body {
		parent := r.Parent
		if r.Overlaps {
			parent += " (overlaps its siblings)"
		}
		fmt.Fprintf(w, "| %s | %s | %s | %.3f | %.1f%% | %d |\n",
			r.Layer, r.Name, parent, float64(r.SelfNS)/1e6, 100*share(r.SelfNS), r.Count)
	}
	fmt.Fprintf(w, "| (none) | unaccounted | | %.3f | %.1f%% | |\n",
		float64(unaccounted)/1e6, 100*share(unaccounted))
	fmt.Fprintf(w, "\nWall time %.3f ms. Times of spans on concurrent lanes (ranks, clients) and of telemetry phases are means over the lanes; counts are totals.\n", float64(wall)/1e6)
}

// writeTrace writes the spans as JSONL and the per-layer table as markdown
// under .bench_build/trace, and echoes the table to w.
func writeTrace(workload string, p params, f facts, t *tracer, metrics map[string]metric, w io.Writer) error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, p.seed))
	jf, err := os.Create(base + ".jsonl")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(jf)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{"type": "facts", "facts": f}); err != nil {
		jf.Close()
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			jf.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		jf.Close()
		return err
	}
	if err := jf.Close(); err != nil {
		return err
	}

	var md strings.Builder
	fmt.Fprintf(&md, "# %s, seed %d (traced)\n\nFacts: `%s`\n\n", workload, p.seed, f.json())
	t.table(&md)
	md.WriteString("\n| per-layer metric | value | unit |\n|---|---:|---|\n")
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&md, "| %s | %.6g | %s |\n", k, metrics[k].Value, metrics[k].Unit)
	}
	if err := os.WriteFile(base+".md", []byte(md.String()), 0o644); err != nil {
		return err
	}
	fmt.Fprint(w, md.String())
	fmt.Fprintf(w, "# trace written to %s.jsonl and %s.md\n", base, base)
	return nil
}
