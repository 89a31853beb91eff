package bwt

import (
	"cmp"
	"encoding/binary"
	"errors"
	"math/bits"
	"slices"
)

// errAbandon is the internal signal that mainSort's work budget was
// exhausted by a too-repetitive block (Fig 6's "abandon mainSort
// mid-way and continue with fallbackSort").
var errAbandon = errors.New("bwt: mainSort abandoned")

// FtabSize is the 2-byte-pair frequency table size (65536 pairs plus the
// cumulative-sum slot, as in bzip2's 65537-entry ftab).
const FtabSize = 65537

// mainSort sorts all rotations of block using bzip2's strategy: a
// frequency table over 2-byte prefixes (the §IV-D gadget — every
// increment is reported to the tracer), bucket placement, then per-bucket
// comparison sorting under a work budget. It returns the sorted rotation
// indices, or errAbandon when the budget is exhausted.
//
// Work is counted in byte-compare units: a comparison whose rotations
// first differ at offset k costs k+1, and one between identical rotations
// costs n. That is the cost of a byte-by-byte compare, whatever the
// compare actually does, so the abandon decision and every Tracer.Work
// value depend only on the block and the comparison sequence.
func mainSort(block []byte, workLimit int, tr Tracer) ([]int32, error) {
	n := len(block)
	if n == 0 {
		return nil, nil
	}

	// Listing 3: the 2-byte frequency table, built in reverse order with
	// j carrying a sliding byte pair.
	ftab := make([]int32, FtabSize)
	j := uint32(block[0]) << 8
	for i := n - 1; i >= 0; i-- {
		j = (j >> 8) | (uint32(block[i]) << 8)
		if tr != nil {
			tr.FtabInc(uint16(j))
		}
		ftab[j]++
	}
	if tr != nil {
		tr.Work(n)
	}

	// Bucket boundaries: cumulative counts.
	starts := make([]int32, FtabSize)
	var sum int32
	for k := 0; k < FtabSize; k++ {
		starts[k] = sum
		if k < FtabSize-1 {
			sum += ftab[k]
		}
	}

	// Rotation i is dbl[i:i+n]. The 8 bytes of padding keep an 8-byte
	// load at any offset below 2n in bounds.
	dbl := make([]byte, 2*n+8)
	copy(dbl, block)
	copy(dbl[n:], block)

	// Place each rotation into its 2-byte bucket.
	ptr := make([]int32, n)
	fill := make([]int32, FtabSize)
	copy(fill, starts)
	for i := 0; i < n; i++ {
		pair := uint32(dbl[i])<<8 | uint32(dbl[i+1])
		ptr[fill[pair]] = int32(i)
		fill[pair]++
	}

	// Sort inside each bucket by full rotation order, under a budget.
	work := 0
	budget := workLimit
	var abandoned bool
	compare := func(a, b int32) int {
		// Compare 8 bytes at a time; big-endian loads order words the
		// way their first differing byte orders them.
		x, y := dbl[a:], dbl[b:]
		for k := 0; k < n; k += 8 {
			u := binary.BigEndian.Uint64(x[k:])
			v := binary.BigEndian.Uint64(y[k:])
			if u == v {
				continue
			}
			k += bits.LeadingZeros64(u^v) / 8
			if k >= n {
				break // the difference lies past the rotation's end
			}
			work += k + 1
			if u < v {
				return -1
			}
			return 1
		}
		work += n
		return cmp.Compare(a, b) // identical rotations: stable by index
	}
	for pair := 0; pair < FtabSize-1 && !abandoned; pair++ {
		lo, hi := starts[pair], fill[pair]
		if hi-lo <= 1 {
			continue
		}
		bucket := ptr[lo:hi]
		slices.SortFunc(bucket, compare)
		if work > budget {
			abandoned = true
		}
	}
	if tr != nil {
		tr.Work(work)
	}
	if abandoned {
		if tr != nil {
			tr.MainSortAbandon(work)
		}
		return nil, errAbandon
	}
	return ptr, nil
}

// fallbackSort is the guaranteed-progress sorter bzip2 retreats to: here a
// Manber-Myers prefix-doubling sort over rotations, O(n log^2 n)
// regardless of repetitiveness. Its work is the number of comparisons.
func fallbackSort(block []byte, tr Tracer) []int32 {
	n := len(block)
	if n == 0 {
		return nil
	}
	rank := make([]int32, n)
	key := make([]uint64, n)
	idx := make([]int32, n)
	for i := 0; i < n; i++ {
		idx[i] = int32(i)
		rank[i] = int32(block[i])
	}
	work := 0
	compare := func(a, b int32) int {
		work++
		return cmp.Compare(key[a], key[b])
	}
	for k := 1; ; k *= 2 {
		// key[i] packs the ranks of rotation i's two halves, so it
		// orders rotations by their first 2k bytes.
		s := k % n
		for i := 0; i < n; i++ {
			j := i + s
			if j >= n {
				j -= n
			}
			key[i] = uint64(rank[i])<<32 | uint64(rank[j])
		}
		slices.SortFunc(idx, compare)
		rank[idx[0]] = 0
		for i := 1; i < n; i++ {
			rank[idx[i]] = rank[idx[i-1]]
			if key[idx[i-1]] != key[idx[i]] {
				rank[idx[i]]++
			}
		}
		if int(rank[idx[n-1]]) == n-1 {
			break
		}
		if k >= n {
			break
		}
	}
	if tr != nil {
		tr.Work(work)
	}
	return idx
}

// sortBlock applies the Fig 6 control flow: full-size blocks start in
// mainSort and may abandon to fallbackSort; short blocks go straight to
// fallbackSort.
func sortBlock(block []byte, fullSize bool, workFactor int, tr Tracer) []int32 {
	if fullSize {
		if tr != nil {
			tr.MainSortEnter()
		}
		ptr, err := mainSort(block, workFactor*len(block), tr)
		if err == nil {
			return ptr
		}
		// Too repetitive: retreat (Fig 6).
	}
	if tr != nil {
		tr.FallbackSortEnter()
	}
	return fallbackSort(block, tr)
}
