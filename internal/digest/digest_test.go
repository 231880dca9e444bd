package digest

import (
	"math"
	"testing"
)

type inner struct{ E float64 }

type sample struct {
	N  int
	F  float64
	S  string
	B  bool
	Sl []int
	P  *inner
	u  uint8
}

func TestGolden(t *testing.T) {
	// Pinned: a change to the encoding changes every checkpoint digest and
	// must come with a manifest version bump.
	v := sample{N: -3, F: math.Inf(1), S: "fe", B: true, Sl: []int{7}, P: &inner{E: 0.5}, u: 9}
	if got, want := Of(v), "d5ec89c357edee72"; got != want {
		t.Errorf("Of(sample) = %s, want %s", got, want)
	}
	if Of(sample{Sl: []int{}}) == Of(sample{}) || Of(sample{P: &inner{}}) == Of(sample{}) {
		t.Error("nil and empty digest alike")
	}
	type pair struct{ A, B string }
	if Of(pair{"ab", "c"}) == Of(pair{"a", "bc"}) {
		t.Error("string fields are not self-delimiting")
	}
}

func TestUnsupportedKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a map field was digested instead of refused")
		}
	}()
	Of(struct{ M map[int]int }{})
}
