package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"cdb/internal/calculus"
	"cdb/internal/cqa"
	"cdb/internal/exec"
	"cdb/internal/query"
	"cdb/internal/relation"
)

// digest identifies a result: the schema line and the tuple strings in
// sorted order. The daemon's buffered and streamed responses and the
// in-process passes are all reduced to it.
func digest(schema string, tuples []string) string {
	sorted := append([]string(nil), tuples...)
	sort.Strings(sorted)
	h := sha256.New()
	io.WriteString(h, schema)
	for _, t := range sorted {
		io.WriteString(h, "\n")
		io.WriteString(h, t)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// evaluate runs r against env the way the daemon's /v1/query does: a
// query program is parsed, planned and run statement by statement and the
// last result normalised; a rules program is returned as produced. tr,
// when non-nil, records a span around each call into a layer.
func evaluate(env cqa.Env, r *request, ec *exec.Context, tr *tracer) (*relation.Relation, error) {
	if r.Rules != "" {
		sp := tr.begin("calculus.parse")
		prog, err := calculus.Parse(r.Rules)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("cqa.eval")
		out, err := prog.RunCtx(env, ec)
		tr.end(sp)
		return out, err
	}
	sp := tr.begin("query.parse")
	prog, err := query.Parse(r.Query)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("cqa.eval")
	out, err := prog.RunOptimizedCtx(env, ec)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("relation.normalize")
	norm := out.NormalizeWith(ec.SatFunc())
	tr.end(sp)
	return norm, nil
}

// render turns a result into the daemon's response payload — sorted
// tuples, rendered, JSON-encoded — and returns the digest and the
// encoded size.
func render(rel *relation.Relation, tr *tracer) (string, int, error) {
	sp := tr.begin("relation.render")
	defer tr.end(sp)
	sorted := rel.Sorted()
	tuples := make([]string, len(sorted))
	for i, t := range sorted {
		tuples[i] = t.String()
	}
	schema := rel.Schema().String()
	b, err := json.Marshal(map[string]any{"schema": schema, "tuples": tuples, "count": len(tuples)})
	if err != nil {
		return "", 0, err
	}
	return digest(schema, tuples), len(b), nil
}

// computeReference fills every pool entry's expected digest on the
// reference path: one worker, dense pairing forced, no sat-cache — the
// configuration with the fewest moving parts. The daemon runs its
// defaults (GOMAXPROCS workers, the planner's choice, a 4096-entry
// cache) and must produce the same bytes.
func computeReference(env cqa.Env, pool []request) error {
	ec := exec.New(1)
	ec.PlanMode = exec.PlanDense
	for i := range pool {
		ec.Reset()
		rel, err := evaluate(env, &pool[i], ec, nil)
		if err != nil {
			return fmt.Errorf("reference for pool entry %d: %w", i, err)
		}
		if pool[i].want, _, err = render(rel, nil); err != nil {
			return err
		}
	}
	return nil
}
