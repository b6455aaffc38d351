// Package a is the mapdet analysistest fixture: lines with `want` comments
// are the positive corpus, lines without are the negative corpus.
package a

import (
	"bytes"
	"fmt"
	"sort"
)

// appendNoSort leaks map order into the returned slice.
func appendNoSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want "append to \"keys\" inside range over map"
	}
	return keys
}

// appendThenSort is the sanctioned collect-then-sort pattern.
func appendThenSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// appendLocal appends to a slice scoped inside the loop body.
func appendLocal(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		n += len(local)
	}
	return n
}

// stringConcat leaks map order into the output string.
func stringConcat(m map[string]int) string {
	out := ""
	for k := range m {
		out += k // want "string concatenation into \"out\" inside range over map"
	}
	return out
}

// floatAccum leaks map order into a non-associative float sum.
func floatAccum(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		total += v // want "float accumulation into \"total\" inside range over map"
	}
	return total
}

// intAccum is order-insensitive and exempt.
func intAccum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// keyedWrite builds a keyed structure; no order leaks.
func keyedWrite(m map[string]int) map[int]string {
	inv := make(map[int]string, len(m))
	for k, v := range m {
		inv[v] = k
	}
	return inv
}

// printSink emits bytes per iteration.
func printSink(m map[string]int, buf *bytes.Buffer) {
	for k, v := range m {
		fmt.Fprintf(buf, "%s=%d\n", k, v) // want "fmt.Fprintf inside range over map"
	}
}

// writerSink streams into an outer buffer.
func writerSink(m map[string]int) string {
	var b bytes.Buffer
	for k := range m {
		b.WriteString(k) // want "b.WriteString inside range over map"
	}
	return b.String()
}

// nearestKey is an argmin over map keys shaped like a Steiner
// nearest-terminal pick: on a distance tie the iteration order wins.
func nearestKey(inTree []bool, dist [][]float64, remaining map[int]bool) (int, int) {
	bestFrom, bestTo, bestD := -1, -1, 1e300
	for from := range inTree {
		if !inTree[from] {
			continue
		}
		for to := range remaining {
			if dist[from][to] < bestD {
				bestFrom, bestTo, bestD = from, to, dist[from][to] // want "range key \"to\" picked into \"bestTo\""
			}
		}
	}
	return bestFrom, bestTo
}

// maxValue is a max over values that records no key; ties are harmless.
func maxValue(m map[string]int) int {
	best := 0
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}

// keyedAbove writes under an ordering if, but keyed by the range key.
func keyedAbove(m map[string]int, out map[string]bool) {
	for k, v := range m {
		if v >= 3 {
			out[k] = true
		}
	}
}

// sliceRange is not a map range; nothing fires.
func sliceRange(xs []string) []string {
	var out []string
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}

// nestedRanges: the same append sits in two map-range bodies but is reported
// once (diagnostics are deduplicated).
func nestedRanges(m map[string]map[string]int) []string {
	var keys []string
	for _, inner := range m {
		for k := range inner {
			keys = append(keys, k) // want "append to \"keys\" inside range over map"
		}
	}
	return keys
}

// suppressed documents an intentional use; the directive silences mapdet.
func suppressed(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) //dgclvet:ignore mapdet order re-established by the caller
	}
	return keys
}
