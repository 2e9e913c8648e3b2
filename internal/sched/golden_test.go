package sched

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"hercules/internal/model"
)

// goldenSearch heads one pinned SearchHercules walk; the configurations
// the search scored follow it, one line each, in evaluation order.
type goldenSearch struct {
	Model  string
	Server string
	Best   Eval
	Evals  int
}

// TestSearchHerculesGolden pins the offline search bit for bit on a
// CPU-only server (T2) and an accelerated one (T7): the visited
// configurations, their order, and every capacity measurement. A
// change to the simulator's cost path that keeps this file
// byte-identical changed only how fast the search runs. Regenerate
// with UPDATE_GOLDEN=1 go test ./internal/sched -run
// TestSearchHerculesGolden only when the cost model changes
// deliberately.
func TestSearchHerculesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full Hercules search on two servers")
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, p := range []struct{ model, server string }{
		{"DLRM-RMC1", "T2"},
		{"DLRM-RMC3", "T7"},
	} {
		sr := searcher(t, p.model, p.server, model.Prod)
		sr.CollectTrace = true
		best := sr.SearchHercules()
		if err := enc.Encode(goldenSearch{p.model, p.server, best, sr.Evals}); err != nil {
			t.Fatal(err)
		}
		for _, e := range sr.Trace {
			if err := enc.Encode(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	data := buf.Bytes()
	const path = "testdata/golden_search.ndjson"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Error("SearchHercules walk diverged from the committed golden (UPDATE_GOLDEN=1 to regenerate after a deliberate change)")
	}
}
