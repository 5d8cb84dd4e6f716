package main

import (
	"sort"
	"sync"
	"time"
)

// tracer records spans from this directory's own code, around calls
// into each package's public functions; nothing inside the packages is
// instrumented. Spans stay in memory and are aggregated when the run
// ends. With on == false every call is a no-op, which is how the
// end-to-end metrics are measured.
type tracer struct {
	on    bool
	mu    sync.Mutex
	spans []span
}

// span names are "<layer>.<call>"; Parent is the index of the span that
// caused this one, -1 at the root.
type span struct {
	Name       string
	Parent     int
	Start, End time.Time
}

// start opens a span and returns its id (-1 when tracing is off).
func (t *tracer) start(name string, parent int) int {
	if !t.on {
		return -1
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: now})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if id < 0 {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return now.Sub(t.spans[id].Start)
}

// spanStat is the per-name summary written to the ledger. SelfMs is the
// total minus the part of each span its child spans cover.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (t *tracer) aggregate() []spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	byName := make(map[string]*spanStat)
	for i, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
		}
		total := s.End.Sub(s.Start)
		st.Count++
		st.TotalMs += millis(total)
		st.SelfMs += millis(total - t.covered(children[i]))
	}
	out := make([]spanStat, 0, len(byName))
	for _, name := range sortedKeys(byName) {
		out = append(out, *byName[name])
	}
	return out
}

// covered is the length of the union of the given spans' intervals
// (children may run in parallel, so their durations cannot be summed).
func (t *tracer) covered(ids []int) time.Duration {
	sort.Slice(ids, func(a, b int) bool { return t.spans[ids[a]].Start.Before(t.spans[ids[b]].Start) })
	var sum time.Duration
	var end time.Time
	for _, id := range ids {
		s := t.spans[id]
		if s.Start.After(end) {
			sum += s.End.Sub(s.Start)
			end = s.End
		} else if s.End.After(end) {
			sum += s.End.Sub(end)
			end = s.End
		}
	}
	return sum
}

// total sums the durations of every span called name.
func (t *tracer) total(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End.Sub(s.Start)
		}
	}
	return d
}
