package dead

import "testing"

// TestTestOnly is TestOnly's only reference; deadexport ignores it.
func TestTestOnly(t *testing.T) {
	if TestOnly() != 2 {
		t.Fatal("TestOnly")
	}
	// A test-file setter does not count.
	if k := (Knobs{TestSet: 1}); k.TestSet != 1 {
		t.Fatal("TestSet")
	}
}
