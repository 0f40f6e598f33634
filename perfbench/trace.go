package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// recorder keeps the benchmark's own spans in memory for one traced
// window. Every span has a name, a start, an end and a parent (0 for a
// root); a span around a call that returned the program's own span tree
// (beas.WithTrace, ?debug=trace) carries that tree. Safe for concurrent
// use; a nil recorder records nothing.
type recorder struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []spanRec
}

// spanRec is one finished span.
type spanRec struct {
	ID      int64          `json:"id"`
	Parent  int64          `json:"parent"`
	Name    string         `json:"name"`
	StartUS float64        `json:"start_us"`
	EndUS   float64        `json:"end_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
	Tree    *obs.SpanJSON  `json:"tree,omitempty"`
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// tspan is an open span.
type tspan struct {
	r      *recorder
	id     int64
	parent int64
	name   string
	start  time.Time
	attrs  map[string]any
}

// root opens a span without a parent.
func (r *recorder) root(name string) *tspan {
	if r == nil {
		return nil
	}
	return &tspan{r: r, id: r.nextID.Add(1), name: name, start: time.Now()}
}

// childOf opens a span under the span with the given id.
func (r *recorder) childOf(parent int64, name string) *tspan {
	if r == nil {
		return nil
	}
	return &tspan{r: r, id: r.nextID.Add(1), parent: parent, name: name, start: time.Now()}
}

func (s *tspan) child(name string) *tspan {
	if s == nil {
		return nil
	}
	return s.r.childOf(s.id, name)
}

func (s *tspan) set(key string, v any) {
	if s == nil {
		return
	}
	if s.attrs == nil {
		s.attrs = map[string]any{}
	}
	s.attrs[key] = v
}

// end closes the span, attaching the program's span tree when non-nil.
func (s *tspan) end(tree *obs.SpanJSON) {
	if s == nil {
		return
	}
	now := time.Now()
	rec := spanRec{
		ID: s.id, Parent: s.parent, Name: s.name,
		StartUS: us(s.start.Sub(s.r.t0)), EndUS: us(now.Sub(s.r.t0)),
		Attrs: s.attrs, Tree: tree,
	}
	s.r.mu.Lock()
	s.r.spans = append(s.r.spans, rec)
	s.r.mu.Unlock()
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

type spanKey struct{}

// withSpan carries an open span on a context, so code the benchmark hands
// to the program (a transport) can open children under it.
func withSpan(ctx context.Context, s *tspan) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

func spanFrom(ctx context.Context) *tspan {
	s, _ := ctx.Value(spanKey{}).(*tspan)
	return s
}

// Layer of each benchmark span and each program span name. Spans of the
// benchmark's own probes (names starting "probe.") stay out of the
// per-operation self times; peer_rpc spans overlap the program's
// peer_fetch spans and are counted there.
var benchLayer = map[string]string{
	"parse":      "sqlparser",
	"query":      "core",
	"http":       "serve",
	"handler":    "serve",
	"apply":      "access",
	"checkpoint": "persist",
}

var programLayer = map[string]string{
	"query":       "core",
	"plan":        "plancache",
	"generate":    "chase",
	"execute":     "core",
	"leaf":        "core",
	"combine":     "core",
	"eta_refine":  "core",
	"fetch_step":  "plan",
	"shard":       "access",
	"local_fetch": "access",
	"peer_fetch":  "cluster",
}

// spanStats is what a traced window's spans add up to.
type spanStats struct {
	// bench holds the durations (µs) of the benchmark's spans by name;
	// program those of the program's spans by name.
	bench, program map[string][]float64
	// self is the summed self time (µs) of each layer over the window's
	// operations; ops counts the root operations.
	self map[string]float64
	ops  int
	// serve pairs, per HTTP request, handler time, engine time and round
	// trip (µs).
	handler, engine, codec, transport []float64
}

// analyze folds the recorded spans into per-name durations and per-layer
// self times. A span's self time is its duration minus its children's.
func (r *recorder) analyze() *spanStats {
	st := &spanStats{bench: map[string][]float64{}, program: map[string][]float64{}, self: map[string]float64{}}
	if r == nil {
		return st
	}
	r.mu.Lock()
	spans := append([]spanRec(nil), r.spans...)
	r.mu.Unlock()
	kids := map[int64][]*spanRec{}
	for i := range spans {
		kids[spans[i].Parent] = append(kids[spans[i].Parent], &spans[i])
	}
	// The client receives the engine's tree of an HTTP request, but the
	// tree ran inside the server's handler span: move it there.
	for i := range spans {
		s := &spans[i]
		if s.Name != "http" || s.Tree == nil {
			continue
		}
		for _, k := range kids[s.ID] {
			if k.Name == "handler" {
				k.Tree, s.Tree = s.Tree, nil
				break
			}
		}
	}
	var walkTree func(t *obs.SpanJSON)
	walkTree = func(t *obs.SpanJSON) {
		d := float64(t.Micros)
		st.program[t.Name] = append(st.program[t.Name], d)
		for i := range t.Children {
			d -= float64(t.Children[i].Micros)
			walkTree(&t.Children[i])
		}
		st.self[layerOf(programLayer, t.Name)] += max(d, 0)
	}
	for i := range spans {
		s := &spans[i]
		dur := s.EndUS - s.StartUS
		st.bench[s.Name] = append(st.bench[s.Name], dur)
		if s.Parent == 0 && !isProbe(s.Name) {
			st.ops++
		}
		if isProbe(s.Name) || s.Name == "peer_rpc" {
			continue
		}
		self := dur
		for _, k := range kids[s.ID] {
			if k.Name != "peer_rpc" {
				self -= k.EndUS - k.StartUS
			}
		}
		if s.Tree != nil {
			self -= float64(s.Tree.Micros)
			walkTree(s.Tree)
		}
		st.self[layerOf(benchLayer, s.Name)] += max(self, 0)
		if s.Name == "http" {
			for _, k := range kids[s.ID] {
				if k.Name != "handler" {
					continue
				}
				h := k.EndUS - k.StartUS
				e, _ := s.Attrs["served_us"].(float64)
				st.handler = append(st.handler, h)
				st.engine = append(st.engine, e)
				st.codec = append(st.codec, h-e)
				st.transport = append(st.transport, dur-h)
			}
		}
	}
	return st
}

func isProbe(name string) bool { return len(name) > 6 && name[:6] == "probe." }

func layerOf(m map[string]string, name string) string {
	if l, ok := m[name]; ok {
		return l
	}
	return "other"
}

// medianOf is the median of the named durations, 0 when none were seen.
func medianOf(m map[string][]float64, name string) float64 { return median(m[name]) }

// meanOf is the mean of the named durations, 0 when none were seen. The
// program's spans count whole microseconds, so their mean resolves
// changes a median of them would round away.
func meanOf(m map[string][]float64, name string) float64 { return mean(m[name]) }

// setSpanMetrics records the per-layer metrics the spans give and prints
// each layer's self time per operation.
func (b *bench) setSpanMetrics(st *spanStats) {
	b.setLayer("core.execute_us", meanOf(st.program, "execute"))
	b.setLayer("core.combine_us", meanOf(st.program, "combine"))
	b.setLayer("core.eta_refine_us", meanOf(st.program, "eta_refine"))
	b.setLayer("plan.fetch_step_us", meanOf(st.program, "fetch_step"))
	b.setLayer("access.local_fetch_us", medianOf(st.bench, "probe.fetch"))
	b.setLayer("plancache.hit_ratio", float64(b.cacheHits.Load())/math.Max(1, float64(b.cacheLookups.Load())))
	b.printf("plancache hits=%d of %d traced queries", b.cacheHits.Load(), b.cacheLookups.Load())
	var layers []string
	total := 0.0
	for l, v := range st.self {
		layers = append(layers, l)
		total += v
	}
	sort.Strings(layers)
	for _, l := range layers {
		v := st.self[l]
		b.printf("selftime %-10s %10.2f us/op %6.2f%%", l, v/float64(max(st.ops, 1)), 100*v/max(total, 1))
	}
	names := make([]string, 0, len(st.program))
	for n := range st.program {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b.printf("span program.%-12s n=%-7d mean=%.1fus", n, len(st.program[n]), mean(st.program[n]))
	}
	names = names[:0]
	for n := range st.bench {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b.printf("span bench.%-14s n=%-7d median=%.1fus", n, len(st.bench[n]), median(st.bench[n]))
	}
}

// maxWrittenSpans bounds the span file: the first spans of a window are
// written out, every span is analysed.
const maxWrittenSpans = 20000

// write stores the recorded spans as JSON lines under dir.
func (r *recorder) write(dir, name string) (string, error) {
	if r == nil || dir == "" {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	spans := r.spans
	if len(spans) > maxWrittenSpans {
		spans = spans[:maxWrittenSpans]
	}
	for i := range spans {
		if err = enc.Encode(&spans[i]); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}

// finishTrace analyses a traced window's spans, records the span metrics
// and writes the spans out.
func (b *bench) finishTrace(rec *recorder) *spanStats {
	st := rec.analyze()
	b.setSpanMetrics(st)
	path, err := rec.write(b.cfg.TraceOut, fmt.Sprintf("%s-seed%d.ndjson", b.cfg.Workload, b.cfg.Seed))
	if err != nil {
		b.printf("spans not written: %v", err)
	} else if path != "" {
		b.printf("spans written to %s", path)
	}
	return st
}
