package obs

import "time"

// Span is a span-style timer with a dual clock: the deterministic
// simulation clock (when the registry has one installed) and the wall
// clock. Ending a span
//
//   - increments "<name>.calls",
//   - observes the elapsed sim cycles into the "<name>.sim" histogram
//     (only when a sim clock is installed, keeping snapshots
//     deterministic),
//   - emits a "span" trace event, carrying the wall nanoseconds as
//     wall_ns, when a sink is attached.
//
// Span is a value type; the zero Span (from a nil registry) is a no-op.
type Span struct {
	r         *Registry
	name      string
	simStart  uint64
	wallStart time.Time
	hasClock  bool
}

// StartSpan begins a timer. Safe on a nil registry.
func (r *Registry) StartSpan(name string) Span {
	if r == nil {
		return Span{}
	}
	sp := Span{r: r, name: name, wallStart: time.Now()}
	r.mu.Lock()
	if r.simClock != nil {
		sp.hasClock = true
	}
	r.mu.Unlock()
	if sp.hasClock {
		sp.simStart = r.SimNow()
	}
	return sp
}

// End closes the span and records its measurements.
func (sp Span) End() {
	if sp.r == nil {
		return
	}
	wallNS := uint64(time.Since(sp.wallStart).Nanoseconds())
	sp.r.Counter(sp.name + ".calls").Inc()
	var simDur uint64
	if sp.hasClock {
		simDur = sp.r.SimNow() - sp.simStart
		sp.r.Histogram(sp.name + ".sim").Observe(int64(simDur))
	}
	if sink := sp.r.traceSink(); sink != nil {
		sink.Emit("span", sp.r.SimNow(), map[string]any{
			"name":       sp.name,
			"sim_cycles": simDur,
			"wall_ns":    wallNS,
		})
	}
}
