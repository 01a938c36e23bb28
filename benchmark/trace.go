package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// The benchmark's own span recorder (choosing-metrics §4): spans are
// recorded from this package only, around the calls into each layer;
// spans inside the packages are a later change (ROADMAP item 5).
//
// A span is identified by (session, name) and names its parent span by
// name. Calls made once per session (generate, explore, an HTTP request)
// enter their span once; calls made once per evaluation (propose, cost,
// report, one batch dispatch) enter the same span repeatedly, so a
// 2.9-million-evaluation sweep records three spans per session with a
// call count, not 8.6 million records. Covered is the wall-clock during
// which at least one call was inside the span, which is what self time is
// computed from when calls overlap (two fleet partitions in flight).

// span is one recorded span; all times are nanoseconds since the
// tracer's epoch.
type span struct {
	Session string `json:"session"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Count   int64  `json:"count"`
	Busy    int64  `json:"busy_ns"`    // sum of call durations
	Covered int64  `json:"covered_ns"` // union of call intervals

	mu     sync.Mutex
	tr     *tracer
	active int
	mark   int64
	// single marks a span only one goroutine ever enters (the in-process
	// workloads' per-evaluation spans): enter and exit skip the lock,
	// which at 2.9 million evaluations is a third of the tracing overhead.
	single bool
}

// tracer holds the spans of one traced run in memory until dump.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans map[string]*span
	order []*span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make(map[string]*span)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// span returns the (session, name) span, creating it under parent on
// first use. A nil tracer returns a nil span, whose enter and exit do
// nothing — the untraced run installs no wrappers at all, but shared
// client code calls through unconditionally.
func (t *tracer) span(session, name, parent string) *span {
	if t == nil {
		return nil
	}
	key := session + "\x00" + name
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.spans[key]
	if !ok {
		s = &span{Session: session, Name: name, Parent: parent, tr: t, Start: -1}
		t.spans[key] = s
		t.order = append(t.order, s)
	}
	return s
}

// enter starts one call inside the span and returns its start time.
func (s *span) enter() int64 {
	if s == nil {
		return 0
	}
	now := s.tr.now()
	if s.single {
		if s.Start < 0 {
			s.Start = now
		}
		return now
	}
	s.mu.Lock()
	if s.Start < 0 {
		s.Start = now
	}
	if s.active == 0 {
		s.mark = now
	}
	s.active++
	s.mu.Unlock()
	return now
}

// exit ends the call that enter started at start.
func (s *span) exit(start int64) {
	if s == nil {
		return
	}
	now := s.tr.now()
	if s.single {
		s.Count++
		s.Busy += now - start
		s.Covered += now - start
		s.End = now
		return
	}
	s.mu.Lock()
	s.Count++
	s.Busy += now - start
	s.active--
	if s.active == 0 {
		s.Covered += now - s.mark
	}
	s.End = now
	s.mu.Unlock()
}

// layerRow is one line of the per-layer table: a span name's self time
// summed over sessions.
type layerRow struct {
	Name     string  `json:"name"`
	Calls    int64   `json:"calls"`
	SelfMs   float64 `json:"self_ms_per_session"`
	SharePct float64 `json:"share_of_session_wall_pct"`
	selfNs   int64
}

// traceSummary is what the traced run reports: the table, the session
// count, the wall-clock of the root spans and the share no span covers.
type traceSummary struct {
	Sessions        int        `json:"sessions"`
	SessionWallMs   float64    `json:"session_wall_ms"`
	UnattributedPct float64    `json:"unattributed_pct"`
	Layers          []layerRow `json:"layers"`
}

// rootSpan is the name every session's outermost span carries; the
// layers' self times are checked against its wall-clock.
const rootSpan = "session"

// summarize computes self times: a span's covered time minus the covered
// time of the spans that name it as parent (choosing-metrics §4).
func (t *tracer) summarize() traceSummary {
	t.mu.Lock()
	spans := append([]*span(nil), t.order...)
	t.mu.Unlock()

	children := map[string]int64{} // session\x00parent -> covered by children
	for _, s := range spans {
		if s.Parent != "" {
			children[s.Session+"\x00"+s.Parent] += s.Covered
		}
	}
	rows := map[string]*layerRow{}
	var names []string
	var wall, attributed int64
	sessions := 0
	for _, s := range spans {
		self := s.Covered - children[s.Session+"\x00"+s.Name]
		if self < 0 {
			self = 0
		}
		if s.Name == rootSpan {
			sessions++
			wall += s.Covered
		}
		r, ok := rows[s.Name]
		if !ok {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
			names = append(names, s.Name)
		}
		r.Calls += s.Count
		r.selfNs += self
		if s.Name != rootSpan {
			attributed += self
		}
	}
	sum := traceSummary{Sessions: sessions}
	if sessions == 0 || wall == 0 {
		return sum
	}
	sum.SessionWallMs = float64(wall) / float64(sessions) / 1e6
	// The closure rule (ROADMAP): the layers' self times sum to the
	// session wall-clock. A shortfall is time no span covers; an excess
	// means spans overlap in a way their parent links do not describe.
	gap := wall - attributed
	if gap < 0 {
		gap = -gap
	}
	sum.UnattributedPct = 100 * float64(gap) / float64(wall)
	sort.Strings(names)
	for _, n := range names {
		r := rows[n]
		r.SelfMs = float64(r.selfNs) / float64(sessions) / 1e6
		r.SharePct = 100 * float64(r.selfNs) / float64(wall)
		sum.Layers = append(sum.Layers, *r)
	}
	return sum
}

// selfMs returns the summed self time of the named span.
func (s traceSummary) selfMs(name string) float64 {
	for _, r := range s.Layers {
		if r.Name == name {
			return float64(r.selfNs) / 1e6
		}
	}
	return 0
}

// calls returns the named span's call count over all sessions.
func (s traceSummary) calls(name string) int64 {
	for _, r := range s.Layers {
		if r.Name == name {
			return r.Calls
		}
	}
	return 0
}

func (s traceSummary) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "trace %s: %d sessions, %.3f ms wall per session\n", workload, s.Sessions, s.SessionWallMs)
	fmt.Fprintf(w, "  %-24s %12s %16s %8s\n", "span", "calls", "self ms/session", "share %")
	for _, r := range s.Layers {
		name := r.Name
		if name == rootSpan {
			name += " (unattributed)"
		}
		fmt.Fprintf(w, "  %-24s %12d %16.3f %8.2f\n", name, r.Calls, r.SelfMs, r.SharePct)
	}
}

// dump writes every span as JSON.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	spans := append([]*span(nil), t.order...)
	t.mu.Unlock()
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
