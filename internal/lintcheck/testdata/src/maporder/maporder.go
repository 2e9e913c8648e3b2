// Package maporder is the map-iteration-order fixture: order-sensitive
// sinks inside a map range (including float and string folds into
// variables that outlive the body) are flagged unless a deterministic
// sort follows; integer folds and keyed writes stay legal.
package maporder

import (
	"fmt"
	"sort"
)

type result struct {
	Names []string
	Total int
	Mean  float64
}

type emitter struct{}

func (emitter) Emit(s string) {}

func collectUnsorted(m map[string]int) []string {
	var out []string
	for k := range m { // want "append to a slice"
		out = append(out, k)
	}
	return out
}

func collectSorted(m map[string]int) []string {
	var out []string
	for k := range m { // collect-then-sort: legal
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sum(m map[string]int) int {
	total := 0
	for _, v := range m { // commutative local fold: legal
		total += v
	}
	return total
}

func floatSum(m map[string]float64) float64 {
	var total float64
	for _, v := range m { // want "order-dependent fold \\(total\\)"
		total += v
	}
	return total
}

func keyedFloatFold(m map[string]float64, scale map[string]float64) {
	for k, v := range m { // keyed float write: legal
		scale[k] *= v
	}
}

func loopLocalFloatFold(m map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, vs := range m { // fold into a loop-local variable: legal
		var s float64
		for _, v := range vs {
			s += v
		}
		out[k] = s
	}
	return out
}

func exportedWrite(m map[string]float64, res *result) {
	for _, v := range m { // want "exported field write"
		res.Mean = v * 0.5
	}
}

func exportedIntFold(m map[string]int, res *result) {
	for _, v := range m { // integer += is commutative: legal
		res.Total += v
	}
}

func printAll(m map[string]int) {
	for k := range m { // want "fmt\\.Println output"
		fmt.Println(k)
	}
}

func emitAll(m map[string]int, e emitter) {
	for k := range m { // want "writer/emitter call"
		e.Emit(k)
	}
}

func perKey(m map[string][]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, vs := range m { // keyed write + loop-local append: legal
		var doubled []int
		doubled = append(doubled, vs...)
		out[k] = len(doubled)
	}
	return out
}

func allowed(m map[string]int) []string {
	var out []string
	//lint:allow maporder fixture: order is irrelevant downstream
	for k := range m {
		out = append(out, k)
	}
	return out
}
