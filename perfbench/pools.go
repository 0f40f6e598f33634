package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	beas "repro"
	"repro/internal/query"
	"repro/internal/workload"
)

// poolQuery is one generated query of a workload's pool, with the answer
// the library gave it before timing began.
type poolQuery struct {
	dataset string
	class   string // SPC, RA or agg, as generated
	diffs   int    // set differences of an RA query
	sql     string
	q       beas.Query
	alpha   float64
	sys     *beas.System
	ref     *refAnswer
}

// refAnswer is the library's answer to a pool query, kept to compare the
// measured answers against.
type refAnswer struct {
	rows      [][]string
	eta       float64
	exact     bool
	accessed  int
	truncated bool
}

// aggKinds are the aggregates the aggregate queries cycle through.
var aggKinds = []query.AggKind{query.AggCount, query.AggSum, query.AggAvg, query.AggMin, query.AggMax}

// genPool generates n queries over the dataset in the paper's mix: of
// every ten, three aggregate SPC, four RA and three SPC. Within a class the
// shape knobs cycle rather than being drawn at random — #-sel over 3–7,
// #-prod over 0–2, differences over 0–3, the aggregate over the five
// kinds — so two seeds differ in the constants and attributes the
// generator draws, not in how many queries of each shape they hold. Each
// query is rendered to SQL and parsed back. Duplicate (SQL, α) pairs are
// dropped, so every entry is a distinct plan-cache key.
func genPool(d *workload.Dataset, n int, seed int64, alphas []float64) ([]*poolQuery, error) {
	seen := map[string]bool{}
	var pool []*poolQuery
	perClass := map[workload.Class]int{}
	for i := 0; i < n; i++ {
		var spec workload.Spec
		switch {
		case i%10 < 3:
			spec.Class = workload.GenAggSPC
		case i%10 < 7:
			spec.Class = workload.GenRA
		default:
			spec.Class = workload.GenSPC
		}
		k := perClass[spec.Class]
		perClass[spec.Class]++
		spec.NSel, spec.NProd, spec.NDiff, spec.Agg = 3+k%5, (k/5)%3, k%4, aggKinds[k%5]
		// α changes once per 15 queries of a class, after every (#-sel,
		// #-prod) pair has occurred, so each class and shape meets each α.
		alpha := alphas[(k/15)%len(alphas)]
		g, err := d.Generate(spec, seed*1_000_003+int64(i)*7919)
		if err != nil {
			return nil, fmt.Errorf("generate %s query %d: %w", d.Name, i, err)
		}
		sql := beas.RenderSQL(g)
		q, err := beas.ParseSQL(sql)
		if err != nil {
			return nil, fmt.Errorf("parse generated %s query %d: %w", d.Name, i, err)
		}
		key := fmt.Sprintf("%s@%g", sql, alpha)
		if seen[key] {
			continue
		}
		seen[key] = true
		class, diffs := classify(g)
		pool = append(pool, &poolQuery{dataset: strings.ToLower(d.Name), class: class, diffs: diffs, sql: sql, q: q, alpha: alpha})
	}
	return pool, nil
}

// classify names a generated query's class the way Fig. 6 does.
func classify(e query.Expr) (class string, diffs int) {
	switch x := e.(type) {
	case *query.GroupBy:
		return "agg", 0
	case *query.SPC:
		return "SPC", 0
	default:
		return "RA", countDiffs(x)
	}
}

func countDiffs(e query.Expr) int {
	switch x := e.(type) {
	case *query.Diff:
		return 1 + countDiffs(x.L) + countDiffs(x.R)
	case *query.Union:
		return countDiffs(x.L) + countDiffs(x.R)
	}
	return 0
}

// budgetLimit is ⌈α·|D|⌉, the most tuples an answer may access.
func budgetLimit(alpha float64, dbSize int) int {
	return int(math.Ceil(alpha * float64(dbSize)))
}

// checkAnswer applies the checks every answer must pass: η ∈ [0,1], at
// most ⌈α|D|⌉ tuples accessed, η = 1 on an exact answer, and — when a
// reference answer exists — the same answer as the library gave before
// timing.
func (b *bench) checkAnswer(pq *poolQuery, eta float64, exact bool, accessed, rows, dbSize int) {
	ok := true
	if !(eta >= 0 && eta <= 1) {
		b.chk.failf("%s: eta %v outside [0,1]: %s", pq.dataset, eta, pq.sql)
		ok = false
	}
	if limit := budgetLimit(pq.alpha, dbSize); accessed > limit {
		b.chk.failf("%s: accessed %d tuples, limit ceil(%g*%d)=%d: %s", pq.dataset, accessed, pq.alpha, dbSize, limit, pq.sql)
		ok = false
	}
	if exact && eta != 1 {
		b.chk.failf("%s: exact answer with eta %v: %s", pq.dataset, eta, pq.sql)
		ok = false
	}
	if r := pq.ref; r != nil && (eta != r.eta || exact != r.exact || accessed != r.accessed || rows != len(r.rows)) {
		b.chk.failf("%s: answer (eta %v exact %v accessed %d rows %d) differs from the library's (eta %v exact %v accessed %d rows %d): %s",
			pq.dataset, eta, exact, accessed, rows, r.eta, r.exact, r.accessed, len(r.rows), pq.sql)
		ok = false
	}
	if ok {
		b.chk.pass()
	}
}

// setReferences answers every pool query once through the library,
// checks the answers and keeps them as the references the measured
// answers must equal.
func (b *bench) setReferences(ctx context.Context, pool []*poolQuery) error {
	for _, pq := range pool {
		pq.ref = nil
		ans, err := b.libraryQuery(ctx, nil, pq)
		if err != nil {
			return err
		}
		ref := &refAnswer{eta: ans.Eta, exact: ans.Exact, accessed: ans.Stats.Accessed, truncated: ans.Stats.Truncated}
		for _, t := range ans.Rel.Tuples {
			row := make([]string, len(t))
			for j, v := range t {
				row[j] = v.String()
			}
			ref.rows = append(ref.rows, row)
		}
		pq.ref = ref
	}
	return nil
}

// quality is the exact-oracle verdict on one answered query.
type quality struct {
	pq       *poolQuery
	accuracy float64
	eta      float64
}

// oracleSample answers every every-th pool query through the library and
// computes its RC accuracy with the exact oracle. It records the share of
// answers whose accuracy + 1e-9 ≥ η as eta_sound_share, and checks that an
// exact answer equals the exact evaluator's. It runs outside the measured
// windows.
func (b *bench) oracleSample(ctx context.Context, pool []*poolQuery, every int) ([]quality, error) {
	start := time.Now()
	b.etaViolations = nil
	var out []quality
	for i := 0; i < len(pool); i += every {
		pq := pool[i]
		ans, err := b.libraryQuery(ctx, nil, pq)
		if err != nil {
			return nil, err
		}
		db := pq.sys.Scheme().DB()
		rep, err := beas.Accuracy(db, pq.q, ans.Rel)
		if err != nil {
			return nil, fmt.Errorf("oracle for %q: %w", pq.sql, err)
		}
		if rep.Accuracy+1e-9 < ans.Eta {
			// A known fault of the program, on some seeds only: counted in
			// eta_sound_share and printed, not failed (see README.md).
			b.etaViolations = append(b.etaViolations, fmt.Sprintf("%s alpha=%g accuracy=%.6f eta=%.6f: %s",
				pq.dataset, pq.alpha, rep.Accuracy, ans.Eta, pq.sql))
		}
		if ans.Exact {
			exact, err := beas.Exact(db, pq.q)
			if err != nil {
				return nil, fmt.Errorf("exact evaluation of %q: %w", pq.sql, err)
			}
			if msg := sameAnswers(ans.Rel, exact); msg != "" {
				b.chk.failf("%s: exact answer differs from the exact evaluator (%s): %s", pq.dataset, msg, pq.sql)
			} else {
				b.chk.pass()
			}
		}
		out = append(out, quality{pq: pq, accuracy: rep.Accuracy, eta: ans.Eta})
	}
	b.printf("oracle sample: %d queries in %.2fs, %d with RC accuracy below eta", len(out), time.Since(start).Seconds(), len(b.etaViolations))
	for _, v := range b.etaViolations {
		b.printf("ETA ABOVE ACCURACY: %s", v)
	}
	b.setE2E("eta_sound_share", 1-float64(len(b.etaViolations))/math.Max(1, float64(len(out))))
	return out, nil
}

// sameAnswers compares two answer relations as sets, numbers equal to a
// relative 1e-9 (aggregates may sum in another order). It returns "" when
// they agree.
func sameAnswers(got, want *beas.Relation) string {
	g, w := sortedRows(got), sortedRows(want)
	if len(g) != len(w) {
		return fmt.Sprintf("%d distinct rows, exact has %d", len(g), len(w))
	}
	for i := range g {
		if len(g[i]) != len(w[i]) {
			return "row widths differ"
		}
		for j := range g[i] {
			a, b := g[i][j], w[i][j]
			if a.Equal(b) {
				continue
			}
			x, okx := a.AsFloat()
			y, oky := b.AsFloat()
			if okx && oky && math.Abs(x-y) <= 1e-9*math.Max(1, math.Max(math.Abs(x), math.Abs(y))) {
				continue
			}
			return fmt.Sprintf("row %d: %v vs %v", i, g[i], w[i])
		}
	}
	return ""
}

func sortedRows(r *beas.Relation) []beas.Tuple {
	d := r.Distinct()
	rows := append([]beas.Tuple(nil), d.Tuples...)
	sort.Slice(rows, func(i, j int) bool {
		for k := range rows[i] {
			if c := rows[i][k].Compare(rows[j][k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	return rows
}

// setQuality records accuracy_mean over the oracle sample and eta_mean
// over the whole pool.
func (b *bench) setQuality(sample []quality, pool []*poolQuery) {
	acc := make([]float64, len(sample))
	for i, s := range sample {
		acc[i] = s.accuracy
	}
	etas := make([]float64, len(pool))
	for i, pq := range pool {
		etas[i] = pq.ref.eta
	}
	b.setE2E("accuracy_mean", mean(acc))
	b.setE2E("eta_mean", mean(etas))
}

// setPoolLayerMetrics records the per-layer metrics read off the pool's
// reference answers.
func (b *bench) setPoolLayerMetrics(pool []*poolQuery) {
	var accessed, use []float64
	truncated := 0
	for _, pq := range pool {
		accessed = append(accessed, float64(pq.ref.accessed))
		use = append(use, float64(pq.ref.accessed)/float64(budgetLimit(pq.alpha, pq.sys.Scheme().DB().Size())))
		if pq.ref.truncated {
			truncated++
		}
	}
	b.setLayer("plan.tuples_accessed", mean(accessed))
	b.setLayer("plan.budget_use", mean(use))
	b.setLayer("plan.truncated_queries", float64(truncated))
}

// printBreakdown prints accuracy and η of an oracle sample per dataset,
// per α and per query class.
func (b *bench) printBreakdown(sample []quality) {
	type cell struct{ acc, eta []float64 }
	cells := map[string]*cell{}
	var keys []string
	add := func(k string, q quality) {
		c, ok := cells[k]
		if !ok {
			c = &cell{}
			cells[k] = c
			keys = append(keys, k)
		}
		c.acc = append(c.acc, q.accuracy)
		c.eta = append(c.eta, q.eta)
	}
	for _, q := range sample {
		add(fmt.Sprintf("dataset=%s", q.pq.dataset), q)
		add(fmt.Sprintf("alpha=%g", q.pq.alpha), q)
		add(fmt.Sprintf("class=%s", q.pq.class), q)
		add(fmt.Sprintf("dataset=%s alpha=%g", q.pq.dataset, q.pq.alpha), q)
		add(fmt.Sprintf("dataset=%s class=%s", q.pq.dataset, q.pq.class), q)
		add(fmt.Sprintf("dataset=%s class=%s alpha=%g", q.pq.dataset, q.pq.class, q.pq.alpha), q)
	}
	sort.Strings(keys)
	for _, k := range keys {
		c := cells[k]
		b.printf("quality %-36s n=%-4d accuracy=%.4f eta=%.4f", k, len(c.acc), mean(c.acc), mean(c.eta))
	}
}

// schemaEntries is the number of representative tuples the access
// schema keeps resident across its ladders.
func schemaEntries(sys *beas.System) int {
	n := 0
	for _, l := range sys.LadderStats() {
		n += l.ResidentTuples
	}
	return n
}
