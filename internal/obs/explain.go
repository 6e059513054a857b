package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"
)

// counterOrder is the display order of the well-known counters that follow
// the operator counters (OpCounters, in table order); keys listed nowhere
// render after these, alphabetically.
var counterOrder = []string{
	"est_pairs", "act_pairs",
	"items", "workers", "relations", "tuples",
	"queue_ns", "busy_ns", "maxbusy_ns",
}

// TreeOptions tune FormatTree.
type TreeOptions struct {
	// Wall includes per-span wall times. Golden tests turn it off (or
	// install a fake tracer Clock) for deterministic output.
	Wall bool
	// MaxDetail truncates span details longer than this many runes
	// (0 = default 60). The JSON export always keeps the full detail.
	MaxDetail int
}

// FormatTree renders a span forest as an EXPLAIN ANALYZE-style plan
// tree. An operator span whose name equals its parent plan-node span's
// name — the last such child — is folded into the parent line: counters
// merge and its children (the pool fanout spans) are hoisted up a level.
// The cqa plan nodes and the operator recorders both open spans; folding
// shows them as the single plan line a reader expects, and counter totals
// over the rendered tree equal totals over the raw spans.
func FormatTree(roots []*Span, opt TreeOptions) string {
	var b strings.Builder
	for _, root := range roots {
		formatSpan(&b, root, "", "", opt)
	}
	return b.String()
}

func formatSpan(b *strings.Builder, s *Span, selfPrefix, childPrefix string, opt TreeOptions) {
	counters := s.Counters()
	labels := s.Labels()
	wall := s.Wall()
	children := s.Children()

	// Fold the operator recorder's span into this line: its counters merge
	// here, its labels fill in any the plan node did not set itself, and
	// its own children (the pool fanout spans) are hoisted into this node.
	// The recorder is the last child of the node's own name — a plan node
	// opens it after its inputs have run — so an input that is itself a
	// node of that name (a join of a join) keeps its own line.
	recorder := -1
	for i, c := range children {
		if c.Name == s.Name {
			recorder = i
		}
	}
	var kept []*Span
	for i, c := range children {
		if i != recorder {
			kept = append(kept, c)
			continue
		}
		for k, v := range c.Counters() {
			counters[k] += v
		}
		for k, v := range c.Labels() {
			if _, ok := labels[k]; !ok {
				if labels == nil {
					labels = make(map[string]string, 2)
				}
				labels[k] = v
			}
		}
		kept = append(kept, c.Children()...)
	}

	b.WriteString(selfPrefix)
	b.WriteString(s.Name)
	if d := truncateDetail(s.Detail, opt.MaxDetail); d != "" {
		fmt.Fprintf(b, " %s", d)
	}
	if line := annotationLine(labels, counters); line != "" {
		fmt.Fprintf(b, "  [%s]", line)
	}
	if opt.Wall && wall > 0 {
		fmt.Fprintf(b, "  wall=%s", wall.Round(time.Microsecond))
	}
	b.WriteByte('\n')

	for i, c := range kept {
		last := i == len(kept)-1
		self, next := childPrefix+"├─ ", childPrefix+"│  "
		if last {
			self, next = childPrefix+"└─ ", childPrefix+"   "
		}
		formatSpan(b, c, self, next, opt)
	}
}

func truncateDetail(d string, max int) string {
	if max <= 0 {
		max = 60
	}
	r := []rune(d)
	if len(r) <= max {
		return d
	}
	return string(r[:max-1]) + "…"
}

// annotationLine renders labels (sorted by key) ahead of the counters —
// the planner's strategy= annotation reads first on a plan-node line.
func annotationLine(labels map[string]string, counters map[string]int64) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys)+1)
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%s", k, labels[k]))
	}
	if line := counterLine(counters); line != "" {
		parts = append(parts, line)
	}
	return strings.Join(parts, " ")
}

// counterLine renders counters in display order, humanizing *_ns keys
// as durations.
func counterLine(counters map[string]int64) string {
	if len(counters) == 0 {
		return ""
	}
	seen := make(map[string]bool, len(counters))
	var parts []string
	emit := func(k string) {
		v, ok := counters[k]
		if !ok || seen[k] {
			return
		}
		seen[k] = true
		if strings.HasSuffix(k, "_ns") {
			parts = append(parts, fmt.Sprintf("%s=%s",
				strings.TrimSuffix(k, "_ns"), time.Duration(v).Round(time.Microsecond)))
			return
		}
		parts = append(parts, fmt.Sprintf("%s=%d", k, v))
	}
	for _, c := range OpCounters {
		emit(c.Name)
	}
	for _, k := range counterOrder {
		emit(k)
	}
	rest := make([]string, 0, len(counters))
	for k := range counters {
		if !seen[k] {
			rest = append(rest, k)
		}
	}
	sort.Strings(rest)
	for _, k := range rest {
		emit(k)
	}
	return strings.Join(parts, " ")
}

// SpanJSON is the machine-readable form of one span (the -trace-json
// output). Wall time is in nanoseconds; Start is the offset from the
// trace's first span in nanoseconds, so traces diff cleanly across runs.
type SpanJSON struct {
	Name     string            `json:"name"`
	Detail   string            `json:"detail,omitempty"`
	StartNS  int64             `json:"start_ns"`
	WallNS   int64             `json:"wall_ns"`
	Labels   map[string]string `json:"labels,omitempty"`
	Counters map[string]int64  `json:"counters,omitempty"`
	Children []SpanJSON        `json:"children,omitempty"`
}

// TraceJSON marshals a span forest as indented JSON.
func TraceJSON(roots []*Span) ([]byte, error) {
	var base time.Time
	for _, r := range roots {
		if base.IsZero() || r.start.Before(base) {
			base = r.start
		}
	}
	out := make([]SpanJSON, 0, len(roots))
	for _, r := range roots {
		out = append(out, spanJSON(r, base))
	}
	return json.MarshalIndent(out, "", "  ")
}

func spanJSON(s *Span, base time.Time) SpanJSON {
	j := SpanJSON{
		Name:     s.Name,
		Detail:   s.Detail,
		StartNS:  s.start.Sub(base).Nanoseconds(),
		WallNS:   s.Wall().Nanoseconds(),
		Labels:   s.Labels(),
		Counters: s.Counters(),
	}
	if len(j.Counters) == 0 {
		j.Counters = nil
	}
	for _, c := range s.Children() {
		j.Children = append(j.Children, spanJSON(c, base))
	}
	return j
}
