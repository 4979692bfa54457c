package tiny

import "testing"

// TestIndex runs first and panics when Next goes backwards, so the
// tests after it run only on a rerun.
func TestIndex(t *testing.T) {
	var a [2]int
	_ = a[Next(0)]
}

func TestNext(t *testing.T) {
	if got := Next(1); got != 2 {
		t.Fatalf("Next(1) = %d, want 2", got)
	}
}

func TestClamp(t *testing.T) {
	for _, c := range [][4]int{{5, 0, 10, 5}, {-1, 0, 10, 0}, {11, 0, 10, 10}} {
		if got := Clamp(c[0], c[1], c[2]); got != c[3] {
			t.Errorf("Clamp(%d, %d, %d) = %d, want %d", c[0], c[1], c[2], got, c[3])
		}
	}
}
