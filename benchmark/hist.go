package main

import (
	"math"
	"math/bits"
)

// hist counts nanosecond values in log-linear buckets: exact below 256 ns,
// then 128 buckets per power of two, so a percentile read from it is within
// 0.8 % of the value recorded. Its size is fixed, so a run's memory does not
// grow with the number of ops it makes and peak RSS measures the simulator.
type hist [nBuckets]uint64

const (
	subBits  = 7
	nBuckets = (32 - subBits + 1) << subBits
)

func bucketOf(v uint32) int {
	if v < 1<<(subBits+1) {
		return int(v)
	}
	shift := bits.Len32(v) - (subBits + 1)
	return shift<<subBits + int(v>>shift)
}

// bucketMid returns the middle of the values bucket i holds.
func bucketMid(i int) float64 {
	if i < 1<<(subBits+1) {
		return float64(i)
	}
	shift := i>>subBits - 1
	low := uint64(i-shift<<subBits) << shift
	return float64(low) + float64(uint64(1)<<shift-1)/2
}

// percentile returns the nearest-rank p-th percentile, in microseconds, of
// the values recorded in hs together, and how many values there are.
func percentile(hs []*hist, p float64) (float64, int64) {
	var n uint64
	for _, h := range hs {
		for _, c := range h {
			n += c
		}
	}
	if n == 0 {
		return 0, 0
	}
	rank := uint64(math.Ceil(float64(n) * p / 100))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < nBuckets; i++ {
		for _, h := range hs {
			cum += h[i]
		}
		if cum >= rank {
			return bucketMid(i) / 1e3, int64(n)
		}
	}
	panic("benchmark: percentile rank beyond the histogram's count")
}
