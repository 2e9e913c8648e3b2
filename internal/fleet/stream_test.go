package fleet

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"hercules/internal/model"
	"hercules/internal/stats"
	"hercules/internal/telemetry"
	"hercules/internal/workload"
)

// The chunked stream contract: reading a task's admitted stream chunk
// by chunk — inline or through the producer hand-off — yields exactly
// the one-shot stream (a fresh generator's AppendUntil, or the
// recording, then the door's shed thinning), with the same door
// events in the same order.

// horizonFor returns a slice length at which a fresh generator of the
// given rate and seed has produced exactly n queries.
func horizonFor(m *model.Model, qps float64, seed int64, n int) float64 {
	qs, _ := workload.NewGenerator(m, qps, seed).AppendUntilN(nil, math.Inf(1), n+1)
	if n == 0 {
		return qs[0].ArrivalS / 2
	}
	return qs[n-1].ArrivalS
}

// shedSeedAt returns a shed-stream seed whose draws shed (fall below
// frac) at every given stream position.
func shedSeedAt(t *testing.T, frac float64, positions ...int) int64 {
	t.Helper()
	last := slices.Max(positions)
	for seed := int64(1); seed < 10000; seed++ {
		r := stats.NewRand(seed)
		draws := make([]float64, last+1)
		for i := range draws {
			draws[i] = r.Float64()
		}
		ok := true
		for _, p := range positions {
			ok = ok && draws[p] < frac
		}
		if ok {
			return seed
		}
	}
	t.Fatal("no shed seed found")
	return 0
}

// streamTask arms a task over a stream of n queries: generated, or
// recorded (the same queries handed over as a recording).
func streamTask(n int, recorded bool, shedFrac float64, shedSeed int64) *poolTask {
	const qps, genSeed = 5000.0, 17
	m := model.DLRMRMC1(model.Prod)
	w := &poolTask{model: m, qps: qps, genSeed: genSeed, sizeScale: 1,
		shedFrac: shedFrac, shedSeed: shedSeed,
		sliceS: horizonFor(m, qps, genSeed, n),
		ring:   make([]workload.Query, ringSlots*chunkLen)}
	w.reset(1)
	if recorded {
		w.fromTrace = true
		w.rec = workload.NewGenerator(m, qps, genSeed).Until(w.sliceS)
	}
	w.door.Arm(telemetry.NewTracer(1, 1, 0), 0, m.Name, stats.HashString(m.Name))
	w.traceOn = true
	return w
}

// oneShot is the reference: the whole stream at once, thinned, with
// the door events the thinning emits.
func oneShot(w *poolTask) ([]workload.Query, []telemetry.Event, int) {
	var door telemetry.ShardBuf
	door.Arm(telemetry.NewTracer(1, 1, 0), 0, w.model.Name, stats.HashString(w.model.Name))
	ev := door.Emit(telemetry.KindOffer, -1, 0)
	ev.Value, ev.Aux = w.qps, w.sliceS
	qs := workload.NewGenerator(w.model, w.qps, w.genSeed).Until(w.sliceS)
	shed := 0
	if w.shedFrac > 0 {
		r := stats.NewRand(w.shedSeed)
		kept := qs[:0]
		for _, q := range qs {
			if r.Float64() < w.shedFrac {
				shed++
				ev := door.Emit(telemetry.KindArrival, q.ID, q.ArrivalS)
				ev.Value, ev.Aux = float64(q.Size), q.SparseScale
				ev = door.Emit(telemetry.KindShed, q.ID, q.ArrivalS)
				ev.Value = w.shedFrac
				continue
			}
			kept = append(kept, q)
		}
		qs = kept
	}
	return qs, door.Events(), shed
}

// chunked reads the task's stream chunk by chunk, through the producer
// hand-off when produce is set.
func chunked(t *testing.T, w *poolTask, produce bool) []workload.Query {
	t.Helper()
	w.openStream()
	var out []workload.Query
	if produce {
		w.startProducer()
		for chunk := <-w.full; chunk != nil; chunk = <-w.full {
			if len(chunk) > chunkLen {
				t.Fatalf("chunk of %d queries", len(chunk))
			}
			out = append(out, chunk...)
			w.free <- chunk[:0]
		}
		return out
	}
	for !w.drained() {
		chunk := w.fill(w.slot(0))
		if len(chunk) > chunkLen {
			t.Fatalf("chunk of %d queries", len(chunk))
		}
		out = append(out, chunk...)
	}
	return out
}

func TestChunkedStreamMatchesOneShot(t *testing.T) {
	// Sheds on the first and last query of the first chunk and on the
	// first of the second (the last query of a chunk+1 stream).
	shedSeed := shedSeedAt(t, 0.5, 0, chunkLen-1, chunkLen)
	for _, n := range []int{0, 1, chunkLen - 1, chunkLen, chunkLen + 1, 3*chunkLen + 5} {
		for _, shed := range []float64{0, 0.5} {
			for _, mode := range []struct {
				name              string
				recorded, produce bool
			}{{"inline", false, false}, {"producer", false, true}, {"recorded", true, false}} {
				w := streamTask(n, mode.recorded, shed, shedSeed)
				want, wantDoor, wantShed := oneShot(w)
				got := chunked(t, w, mode.produce)
				if len(want)+wantShed != n {
					t.Fatalf("n=%d: reference stream has %d queries", n, len(want)+wantShed)
				}
				if !slices.Equal(got, want) {
					t.Errorf("n=%d shed=%v %s: %d chunked queries != %d one-shot", n, shed, mode.name, len(got), len(want))
				}
				if w.shed != wantShed || !reflect.DeepEqual(w.door.Events(), wantDoor) {
					t.Errorf("n=%d shed=%v %s: shed %d (%d door events), want %d (%d)",
						n, shed, mode.name, w.shed, len(w.door.Events()), wantShed, len(wantDoor))
				}
				if mode.produce && len(w.free) != ringSlots {
					t.Errorf("n=%d shed=%v: %d of %d ring slots returned", n, shed, len(w.free), ringSlots)
				}
			}
		}
	}
}

// A recorded stream read in chunks is never written: unthinned chunks
// are the recording's own subslices, thinned ones land in the ring.
func TestChunkedRecordedStreamReadOnly(t *testing.T) {
	w := streamTask(2*chunkLen+3, true, 0.5, 3)
	orig := append([]workload.Query(nil), w.rec...)
	rec := w.rec
	chunked(t, w, false)
	if !reflect.DeepEqual(rec, orig) {
		t.Fatal("shed thinning wrote into the recording")
	}
}
