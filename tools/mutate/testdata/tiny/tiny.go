// Package tiny is the subject the mutation tool's own test mutates.
package tiny

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Next returns the index after i.
func Next(i int) int {
	return i + 1
}
