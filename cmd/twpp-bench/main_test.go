package main

import "testing"

func TestRunSingleTableTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all profiles")
	}
	dir := t.TempDir()
	if err := run(0.02, dir, 1, 0, 2, 2, false); err != nil {
		t.Fatal(err)
	}
	if err := run(0.02, dir, 2, 0, 2, 1, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunFigures(t *testing.T) {
	for _, f := range []int{9, 10, 11, 12} {
		if err := run(1, "", 0, f, 1, 1, false); err != nil {
			t.Errorf("figure %d: %v", f, err)
		}
	}
}

func TestMinHelper(t *testing.T) {
	if min(1, 2) != 1 || min(5, 3) != 3 {
		t.Error("min broken")
	}
}
