// Package textembed implements the dense text-embedding substrates that the
// paper uses as competitors and as the evaluation judge: a count-based
// distributional word-vector model standing in for DOC2VEC, a character
// n-gram hashing encoder standing in for the pretrained SBERT, and a
// subword-aware document encoder standing in for FastText (see DESIGN.md §1
// for why each substitution preserves the relevant behaviour). Everything is
// deterministic given the seed.
package textembed

import "math"

// Vector is a dense embedding vector.
type Vector []float32

// Dot returns the inner product of a and b (shorter length governs).
func Dot(a, b Vector) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var s float64
	for i := 0; i < n; i++ {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

// Norm returns the L2 norm of v.
func Norm(v Vector) float64 { return math.Sqrt(Dot(v, v)) }

// Cosine returns the cosine similarity of a and b; zero vectors yield 0.
func Cosine(a, b Vector) float64 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}

// Normalize scales v to unit length in place and returns it. Zero vectors
// are returned unchanged.
func Normalize(v Vector) Vector {
	n := Norm(v)
	if n == 0 {
		return v
	}
	inv := float32(1 / n)
	for i := range v {
		v[i] *= inv
	}
	return v
}

// AddScaled accumulates dst += s*src in place.
func AddScaled(dst, src Vector, s float32) {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	for i := 0; i < n; i++ {
		dst[i] += s * src[i]
	}
}
