package fleet

import (
	"math"
	"reflect"
	"testing"

	"hercules/internal/stats"
)

// probeInstance builds the instance TestOutstandingObservationIndependent
// replays: two channels, three waiting slots, and service that grows
// with the query size, batching up to 4 with a 2 ms window when batched.
func probeInstance(batched bool) *Instance {
	in := NewInstance(0, "T2", "DLRM-RMC1", 250, 2, 3,
		func(size int, scale float64) float64 { return 0.001 * (0.5 + float64(size)/100*scale) })
	if batched {
		in.EnableBatching(4, 0.002, []float64{1, 1, 0.7, 0.55, 0.45})
	}
	in.Reset()
	return in
}

// TestOutstandingObservationIndependent: probing an instance between
// arrivals must not change its replay. Two identical instances take the
// same seeded arrival stream; one is probed with Outstanding at random
// instants (and exactly at its cached next-change instant) between
// arrivals, the other only arrives. Their completion streams, counters,
// utilization and final outstanding count must agree, and every probe's
// cached answer must equal the full slow-path answer at that instant.
func TestOutstandingObservationIndependent(t *testing.T) {
	for _, batched := range []bool{false, true} {
		probed, quiet := probeInstance(batched), probeInstance(batched)
		rng := stats.NewRand(7)
		var gotP, gotQ []Completion
		arrive := func(in *Instance, id int64, now float64, size int, scale float64, sink []Completion) []Completion {
			if batched {
				sink, _ = in.ArriveBatched(id, now, size, scale, sink)
				return sink
			}
			start, done, drop := in.arrive(now, size, scale)
			if !drop {
				sink = append(sink, Completion{ID: id, ArrivalS: now, StartS: start, DoneS: done, Batch: 1})
			}
			return sink
		}
		probe := func(now float64) {
			fast := probed.Outstanding(now)
			if full := probed.advance(now); fast != full {
				t.Fatalf("batched=%v: cached Outstanding(%v) = %d, slow path %d", batched, now, fast, full)
			}
		}
		now := 0.0
		for id := int64(1); id <= 4000; id++ {
			next := now + rng.ExpFloat64()/900
			for k := rng.Intn(4); k > 0; k-- {
				probe(now + rng.Float64()*(next-now))
			}
			if c := probed.nextChg; c >= now && c <= next {
				probe(c)
			}
			now = next
			size, scale := 10+rng.Intn(300), 0.5+rng.Float64()
			gotP = arrive(probed, id, now, size, scale, gotP)
			gotQ = arrive(quiet, id, now, size, scale, gotQ)
		}
		if batched {
			gotP = probed.FlushPending(gotP)
			gotQ = quiet.FlushPending(gotQ)
		}
		if len(gotQ) == 0 || quiet.Dropped == 0 {
			t.Fatalf("batched=%v: served %d, dropped %d; the stream must both serve and overflow",
				batched, len(gotQ), quiet.Dropped)
		}
		if !reflect.DeepEqual(gotP, gotQ) {
			t.Errorf("batched=%v: probing changed the completion stream", batched)
		}
		if probed.Served != quiet.Served || probed.Dropped != quiet.Dropped {
			t.Errorf("batched=%v: served/dropped %d/%d probed, %d/%d quiet",
				batched, probed.Served, probed.Dropped, quiet.Served, quiet.Dropped)
		}
		if up, uq := probed.Utilization(now), quiet.Utilization(now); up != uq {
			t.Errorf("batched=%v: utilization %v probed, %v quiet", batched, up, uq)
		}
		if op, oq := probed.Outstanding(now), quiet.Outstanding(now); op != oq {
			t.Errorf("batched=%v: final outstanding %d probed, %d quiet", batched, op, oq)
		}
	}
}

// TestNaNServiceRejected: a service time that is not a finite positive
// span is rejected like +Inf, on both the unbatched and batched paths.
// An admitted NaN would sit in the completion heap out of order and
// never retire.
func TestNaNServiceRejected(t *testing.T) {
	svc := func(size int, scale float64) float64 {
		if size%2 == 1 {
			return math.NaN()
		}
		return 0.004
	}
	for _, batched := range []bool{false, true} {
		in := NewInstance(0, "T2", "DLRM-RMC1", 100, 2, 8, svc)
		if batched {
			in.EnableBatching(4, 0.002, nil)
		}
		in.Reset()
		var comps []Completion
		for i := 0; i < 20; i++ {
			now, size := float64(i)*0.003, 100+i
			if batched {
				var drop bool
				comps, drop = in.ArriveBatched(int64(i), now, size, 1, comps)
				if drop != (size%2 == 1) {
					t.Fatalf("batched: query %d (size %d) dropped=%v", i, size, drop)
				}
				continue
			}
			done, drop := in.Arrive(now, size, 1)
			if drop != (size%2 == 1) {
				t.Fatalf("unbatched: query %d (size %d) dropped=%v", i, size, drop)
			}
			if !drop {
				comps = append(comps, Completion{ID: int64(i), DoneS: done})
			}
		}
		if batched {
			comps = in.FlushPending(comps)
		}
		if in.Served != 10 || in.Dropped != 10 || len(comps) != 10 {
			t.Fatalf("batched=%v: served/dropped/completions = %d/%d/%d, want 10/10/10",
				batched, in.Served, in.Dropped, len(comps))
		}
		for _, c := range comps {
			if math.IsNaN(c.DoneS) || math.IsInf(c.DoneS, 0) {
				t.Fatalf("batched=%v: completion %+v is not finite", batched, c)
			}
		}
		if n := in.Outstanding(1); n != 0 {
			t.Fatalf("batched=%v: %d queries still outstanding after every completion", batched, n)
		}
	}
}
