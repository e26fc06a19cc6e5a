// Package align implements the sequence-alignment machinery of González et
// al. (PDCAT'09) that the paper's SPMD-simultaneity and execution-sequence
// evaluators are built on: Needleman–Wunsch global pairwise alignment of
// cluster-id sequences and a star-shaped multiple alignment whose columns
// expose which clusters execute simultaneously across tasks.
package align

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// Gap is the symbol used for gaps in aligned sequences.
const Gap = -1

// Scoring parametrises Needleman–Wunsch.
type Scoring struct {
	Match    float64
	Mismatch float64
	GapOpen  float64
}

// DefaultScoring rewards identity and mildly penalises mismatch and gaps,
// which suits highly repetitive SPMD phase sequences.
func DefaultScoring() Scoring { return Scoring{Match: 2, Mismatch: -1, GapOpen: -1} }

func reverse(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// Alignment is a multiple alignment: Rows[k][c] is the symbol of sequence k
// in column c, or Gap.
type Alignment struct {
	Rows [][]int
}

// Columns returns the number of alignment columns.
func (al *Alignment) Columns() int {
	if len(al.Rows) == 0 {
		return 0
	}
	return len(al.Rows[0])
}

// Column returns the symbols of column c across all rows (Gap included).
func (al *Alignment) Column(c int) []int {
	out := make([]int, len(al.Rows))
	for k, row := range al.Rows {
		out[k] = row[c]
	}
	return out
}

// Star builds a multiple alignment by aligning every sequence against a
// centre sequence (the longest one, ties broken by lowest index) and
// merging the pairwise alignments through the centre's coordinates — the
// classic star-alignment approximation, adequate for near-identical SPMD
// phase streams.
func Star(seqs [][]int, sc Scoring) *Alignment {
	if len(seqs) == 0 {
		return &Alignment{}
	}
	centre := 0
	for i, s := range seqs {
		if len(s) > len(seqs[centre]) {
			centre = i
		}
	}
	c := seqs[centre]
	// For each sequence: align to centre, remember for every centre
	// position the matched symbol, and how many insertions occur between
	// consecutive centre positions.
	type aligned struct {
		atPos  [][]int // for centre position p: symbols inserted right before p
		match  []int   // symbol aligned to centre position p, or Gap
		suffix []int   // symbols after the last centre position
	}
	all := make([]aligned, len(seqs))
	maxIns := make([]int, len(c)+1) // insertions before position p (p==len(c): suffix)
	alignOne := func(k int) {
		var a aligned
		a.atPos = make([][]int, len(c)+1)
		a.match = make([]int, len(c))
		for i := range a.match {
			a.match[i] = Gap
		}
		if k == centre {
			for i, sym := range c {
				a.match[i] = sym
			}
			all[k] = a
			return
		}
		ra, rb, _ := Pairwise(c, seqs[k], sc)
		pos := 0 // next centre position
		for t := range ra {
			switch {
			case ra[t] != Gap && rb[t] != Gap:
				a.match[pos] = rb[t]
				pos++
			case ra[t] != Gap: // deletion in s
				pos++
			default: // insertion in s before centre position pos
				a.atPos[pos] = append(a.atPos[pos], rb[t])
			}
		}
		all[k] = a
	}
	// The per-sequence alignments are independent and each writes only its
	// own all[k] slot, so the result is identical regardless of schedule;
	// run them across a bounded worker pool.
	if workers := min(runtime.GOMAXPROCS(0), len(seqs)); workers > 1 {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range next {
					alignOne(k)
				}
			}()
		}
		for k := range seqs {
			next <- k
		}
		close(next)
		wg.Wait()
	} else {
		for k := range seqs {
			alignOne(k)
		}
	}
	for _, a := range all {
		for p, ins := range a.atPos {
			if len(ins) > maxIns[p] {
				maxIns[p] = len(ins)
			}
		}
	}
	// Emit rows: for each centre position, first the insertion block
	// (left-padded with gaps), then the match column.
	width := len(c)
	for _, m := range maxIns {
		width += m
	}
	rows := make([][]int, len(seqs))
	for k, a := range all {
		row := make([]int, 0, width)
		for p := 0; p <= len(c); p++ {
			ins := a.atPos[p]
			for g := 0; g < maxIns[p]-len(ins); g++ {
				row = append(row, Gap)
			}
			row = append(row, ins...)
			if p < len(c) {
				row = append(row, a.match[p])
			}
		}
		rows[k] = row
	}
	return &Alignment{Rows: rows}
}

// CoOccurrence returns, for every pair of distinct symbols (i, j), the
// probability that a column containing i also contains j on another row:
// out[i][j] = #columns{i and j present} / #columns{i present}. This is the
// paper's SPMD-simultaneity measure — "the probability of two different
// computations to be executed at the same time by different processes".
// The diagonal holds the probability that a column containing i has i on
// at least two rows. Symbols must lie in [0, nSymbols).
func (al *Alignment) CoOccurrence(nSymbols int) [][]float64 {
	out := make([][]float64, nSymbols)
	for i := range out {
		out[i] = make([]float64, nSymbols)
	}
	occur := make([]float64, nSymbols)
	colCount := make([]int, nSymbols)
	for c := 0; c < al.Columns(); c++ {
		for i := range colCount {
			colCount[i] = 0
		}
		for _, row := range al.Rows {
			s := row[c]
			if s >= 0 && s < nSymbols {
				colCount[s]++
			}
		}
		for i := 0; i < nSymbols; i++ {
			if colCount[i] == 0 {
				continue
			}
			occur[i]++
			for j := 0; j < nSymbols; j++ {
				switch {
				case j == i:
					if colCount[i] >= 2 {
						out[i][j]++
					}
				case colCount[j] > 0:
					out[i][j]++
				}
			}
		}
	}
	for i := 0; i < nSymbols; i++ {
		if occur[i] == 0 {
			continue
		}
		for j := 0; j < nSymbols; j++ {
			out[i][j] /= occur[i]
		}
	}
	return out
}

// Consensus returns the per-column majority symbol (gaps excluded);
// columns that are all gaps are dropped. The result is the representative
// global execution sequence of the experiment, used by the paper's
// execution-sequence evaluator.
func (al *Alignment) Consensus() []int {
	var out []int
	counts := map[int]int{}
	for c := 0; c < al.Columns(); c++ {
		clear(counts)
		for _, row := range al.Rows {
			if s := row[c]; s != Gap {
				counts[s]++
			}
		}
		if len(counts) == 0 {
			continue
		}
		keys := make([]int, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		best, bestN := keys[0], counts[keys[0]]
		for _, k := range keys[1:] {
			if counts[k] > bestN {
				best, bestN = k, counts[k]
			}
		}
		out = append(out, best)
	}
	return out
}

// SPMDScore measures how SPMD the alignment is: the average, over columns,
// of the fraction of non-gap rows agreeing with the column majority. 1.0
// means every task executes exactly the same phase stream in lockstep.
func (al *Alignment) SPMDScore() float64 {
	cols := al.Columns()
	if cols == 0 {
		return 0
	}
	var total float64
	counts := map[int]int{}
	for c := 0; c < cols; c++ {
		clear(counts)
		nonGap := 0
		for _, row := range al.Rows {
			if s := row[c]; s != Gap {
				counts[s]++
				nonGap++
			}
		}
		if nonGap == 0 {
			total += 1
			continue
		}
		best := 0
		for _, n := range counts {
			if n > best {
				best = n
			}
		}
		total += float64(best) / float64(nonGap)
	}
	return total / float64(cols)
}

// Identity returns the fraction of aligned (non-gap/non-gap) columns of a
// pairwise alignment where the symbols agree. It errors when the aligned
// sequences have different lengths.
func Identity(alignedA, alignedB []int) (float64, error) {
	if len(alignedA) != len(alignedB) {
		return 0, fmt.Errorf("align: aligned length mismatch %d vs %d", len(alignedA), len(alignedB))
	}
	matches, aligned := 0, 0
	for i := range alignedA {
		if alignedA[i] == Gap || alignedB[i] == Gap {
			continue
		}
		aligned++
		if alignedA[i] == alignedB[i] {
			matches++
		}
	}
	if aligned == 0 {
		return 0, nil
	}
	return float64(matches) / float64(aligned), nil
}
