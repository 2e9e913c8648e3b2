package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestSamplingDeterministic: sample membership must be a pure function
// of (seed, interval, model, query index) — two tracers with the same
// seed agree on every query, and a different seed picks a different
// (but similarly sized) subset.
func TestSamplingDeterministic(t *testing.T) {
	a := NewTracer(42, 64, 0)
	b := NewTracer(42, 64, 0)
	c := NewTracer(43, 64, 0)

	var bufA, bufB, bufC ShardBuf
	sameAC := 0
	const n = 100000
	for interval := 0; interval < 4; interval++ {
		bufA.Arm(a, interval, "m", 7)
		bufB.Arm(b, interval, "m", 7)
		bufC.Arm(c, interval, "m", 7)
		hits := 0
		for id := int64(1); id <= n; id++ {
			sa, sb, sc := bufA.Sampled(id), bufB.Sampled(id), bufC.Sampled(id)
			if sa != sb {
				t.Fatalf("interval %d query %d: same seed disagrees", interval, id)
			}
			if sa {
				hits++
			}
			if sa == sc {
				sameAC++
			}
		}
		// 1-in-64 of 100k queries: expect ~1562, allow a wide band.
		if hits < 1000 || hits > 2300 {
			t.Errorf("interval %d: %d sampled of %d at 1/64, outside [1000, 2300]", interval, hits, n)
		}
	}
	if sameAC == 4*n {
		t.Error("different seeds produced identical sample sets")
	}
}

// TestSamplingStreamsIndependent: query IDs restart at 1 for every
// (interval, model) stream, so the sampled-ID sets of two intervals
// must not be copies of each other.
func TestSamplingStreamsIndependent(t *testing.T) {
	tr := NewTracer(1, 32, 0)
	pick := func(interval int, modelHash int64) map[int64]bool {
		var b ShardBuf
		b.Arm(tr, interval, "m", modelHash)
		ids := map[int64]bool{}
		for id := int64(1); id <= 10000; id++ {
			if b.Sampled(id) {
				ids[id] = true
			}
		}
		return ids
	}
	i0, i1 := pick(0, 7), pick(1, 7)
	m0, m1 := pick(0, 7), pick(0, 8)
	equal := func(a, b map[int64]bool) bool {
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if !b[k] {
				return false
			}
		}
		return true
	}
	if !equal(i0, m0) {
		t.Error("same (interval, model) stream not reproducible")
	}
	if equal(i0, i1) {
		t.Error("intervals 0 and 1 sampled identical ID sets")
	}
	if equal(m0, m1) {
		t.Error("two models in one interval sampled identical ID sets")
	}
}

// TestSampleNOne: period 1 traces everything.
func TestSampleNOne(t *testing.T) {
	tr := NewTracer(9, 1, 0)
	var b ShardBuf
	b.Arm(tr, 0, "m", 1)
	for id := int64(1); id <= 1000; id++ {
		if !b.Sampled(id) {
			t.Fatalf("query %d not sampled at period 1", id)
		}
	}
}

// TestFlushIngestOrder: Flush writes the slices of several Ingest
// calls in ingest order and releases them; a flush with no sink
// attached discards its events and counts them in Dropped.
func TestFlushIngestOrder(t *testing.T) {
	tr := NewTracer(0, 1, 0)
	batch := func(from, n int) []Event {
		evs := make([]Event, n)
		for i := range evs {
			evs[i].Query = int64(from + i)
		}
		return evs
	}
	tr.Ingest(batch(0, 5))
	tr.Flush()
	if tr.Dropped() != 5 || tr.Written() != 0 {
		t.Fatalf("sink-less flush: Dropped = %d, Written = %d, want 5, 0", tr.Dropped(), tr.Written())
	}

	var got []int64
	tr.AddSink(sinkFunc(func(seg []Event) error {
		for i := range seg {
			got = append(got, seg[i].Query)
		}
		return nil
	}))
	tr.Ingest(batch(0, 7))
	tr.Ingest(nil)
	tr.Ingest(batch(7, 1))
	tr.Ingest(batch(8, 12))
	tr.Flush()
	tr.Flush() // nothing staged: writes nothing
	if tr.Dropped() != 5 {
		t.Errorf("Dropped = %d, want 5 (no new drops with a sink attached)", tr.Dropped())
	}
	if tr.Written() != 20 || len(got) != 20 {
		t.Fatalf("Written = %d, delivered %d, want 20", tr.Written(), len(got))
	}
	for i := range got {
		if got[i] != int64(i) {
			t.Fatalf("delivery order broken at %d: %v", i, got)
		}
	}
}

// TestArmStampsRegion: a buffer armed after SetRegion labels every
// event it emits with the tracer's region; a buffer armed by a tracer
// without one leaves Region empty.
func TestArmStampsRegion(t *testing.T) {
	tr := NewTracer(0, 1, 0)
	tr.SetRegion("east")
	var b ShardBuf
	b.Arm(tr, 2, "m", 7)
	for id := int64(1); id <= 4; id++ {
		b.Emit(KindArrival, id, 0)
		b.Emit(KindComplete, id, 0.5).Value = 0.5
	}
	for i, ev := range b.Events() {
		if ev.Region != "east" || ev.Model != "m" || ev.Interval != 2 {
			t.Fatalf("event %d = %+v, want region east, model m, interval 2", i, ev)
		}
	}
	b.Arm(NewTracer(0, 1, 0), 3, "m", 7)
	if ev := b.Emit(KindArrival, 1, 0); ev.Region != "" {
		t.Errorf("region-less tracer stamped %q", ev.Region)
	}
}

type sinkFunc func([]Event) error

func (f sinkFunc) WriteEvents(evs []Event) error { return f(evs) }
func (f sinkFunc) Close() error                  { return nil }

// TestNDJSONByteStable: the NDJSON encoding is hand-rolled; pin the
// exact bytes for one event of each shape so an accidental formatting
// change breaks loudly here rather than silently invalidating the
// committed golden trace.
func TestNDJSONByteStable(t *testing.T) {
	var out bytes.Buffer
	w := NewNDJSONWriter(&out)
	evs := []Event{
		{Interval: 3, Kind: KindArrival, Instance: -1, Query: 81, TimeS: 0.0115, Value: 100, Aux: 1.5, Model: "DLRM-RMC1"},
		{Interval: 3, Kind: KindRoute, Instance: 4, Query: 81, TimeS: 0.0115, NCand: 2, Cand: [MaxCandidates]int32{2, 4}, Model: "DLRM-RMC1"},
		{Interval: 3, Kind: KindComplete, Instance: 4, Query: 81, TimeS: 0.0176, Value: 0.0061, Model: "DLRM-RMC1"},
		{Interval: 5, Kind: KindDrop, Instance: -1, Query: 9, TimeS: 1.25, Model: "NCF"},
	}
	if err := w.WriteEvents(evs); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want := `{"i":3,"k":"arrival","m":"DLRM-RMC1","q":81,"t":0.0115,"v":100,"aux":1.5}
{"i":3,"k":"route","m":"DLRM-RMC1","q":81,"t":0.0115,"inst":4,"cand":[2,4],"n":2}
{"i":3,"k":"complete","m":"DLRM-RMC1","q":81,"t":0.0176,"inst":4,"v":0.0061}
{"i":5,"k":"drop","m":"NCF","q":9,"t":1.25}
`
	if out.String() != want {
		t.Errorf("NDJSON bytes changed:\ngot:\n%swant:\n%s", out.String(), want)
	}
	// Every line must also be valid JSON.
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Errorf("line %q is not valid JSON: %v", line, err)
		}
	}
}

// TestChromeWriterValidJSON: the Chrome trace document must parse as
// JSON and place events at interval-offset timestamps.
func TestChromeWriterValidJSON(t *testing.T) {
	var out bytes.Buffer
	w := NewChromeWriter(&out, 10)
	evs := []Event{
		{Interval: 0, Kind: KindEnd, Instance: 2, Query: 1, TimeS: 0.5, Value: 0.02, Model: "NCF"},
		{Interval: 1, Kind: KindDrop, Instance: -1, Query: 2, TimeS: 0.1, Model: "NCF"},
		{Interval: 1, Kind: KindShed, Query: 3, TimeS: 0.0, Value: 0.25, Model: "NCF"},
		{Interval: 1, Kind: KindArrival, Query: 4, TimeS: 0.2, Model: "NCF"}, // not rendered
	}
	if err := w.WriteEvents(evs); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			Ts  float64 `json:"ts"`
			Dur float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("rendered %d events, want 3", len(doc.TraceEvents))
	}
	// End event: span [0.48s, 0.5s] -> ts 480000us, dur 20000us.
	if doc.TraceEvents[0].Ph != "X" || doc.TraceEvents[0].Ts != 480000 || doc.TraceEvents[0].Dur != 20000 {
		t.Errorf("End event = %+v, want X at ts=480000 dur=20000", doc.TraceEvents[0])
	}
	// Drop in interval 1 at 0.1s with 10s spacing -> 10.1s.
	if doc.TraceEvents[1].Ts != 10.1e6 {
		t.Errorf("Drop ts = %g, want 10.1e6", doc.TraceEvents[1].Ts)
	}
}

// TestChromeWriterEmptyClose: closing with no events must still emit a
// valid document.
func TestChromeWriterEmptyClose(t *testing.T) {
	var out bytes.Buffer
	w := NewChromeWriter(&out, 0)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var v map[string]any
	if err := json.Unmarshal(out.Bytes(), &v); err != nil {
		t.Fatalf("empty-close doc invalid: %v\n%s", err, out.String())
	}
}

// TestCountSink covers the benchmark sink's per-kind accounting.
func TestCountSink(t *testing.T) {
	var cs CountSink
	_ = cs.WriteEvents([]Event{{Kind: KindArrival}, {Kind: KindArrival}, {Kind: KindComplete}})
	if cs.Total != 3 || cs.Of(KindArrival) != 2 || cs.Of(KindComplete) != 1 || cs.Of(KindDrop) != 0 {
		t.Errorf("counts wrong: total=%d arrival=%d complete=%d", cs.Total, cs.Of(KindArrival), cs.Of(KindComplete))
	}
}

// TestRegistry exercises the metrics registry: handle stability,
// concurrent updates, and a deterministic snapshot.
func TestRegistry(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Error("Counter handle not stable")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Error("Gauge handle not stable")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Error("Histogram handle not stable")
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("a")
			h := r.Histogram("h")
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(10)
			}
		}()
	}
	wg.Wait()
	r.Gauge("g").Set(3.5)

	snap := r.Snapshot()
	if snap.Counters["a"] != 8000 {
		t.Errorf("counter a = %d, want 8000", snap.Counters["a"])
	}
	if snap.Gauges["g"] != 3.5 {
		t.Errorf("gauge g = %g, want 3.5", snap.Gauges["g"])
	}
	hs := snap.Histograms["h"]
	if hs.Count != 8000 || hs.P50 < 9.8 || hs.P50 > 10.2 {
		t.Errorf("histogram h = %+v, want count 8000 p50 ~10", hs)
	}
	if got := snap.Names(); len(got) != 3 || got[0] != "a" || got[1] != "g" || got[2] != "h" {
		t.Errorf("Names() = %v, want [a g h]", got)
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Errorf("snapshot not JSON-serializable: %v", err)
	}
}
