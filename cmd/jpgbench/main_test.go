package main

import (
	"strings"
	"testing"
)

// TestUnknownExperimentFailsLoudly pins -exp parsing: a typo'd or retired id
// exits non-zero with a message naming the valid ids, instead of running
// nothing and passing.
func TestUnknownExperimentFailsLoudly(t *testing.T) {
	for _, list := range []string{"bogus", "none", "e11", "e1,", ""} {
		if _, err := selectExperiments(list); err == nil {
			t.Errorf("-exp %q accepted", list)
		} else if msg := err.Error(); !strings.Contains(msg, "e1, e2, e3, e4, e5, e6, e7, e8, e9, e10, all") {
			t.Errorf("-exp %q: message %q does not list the valid ids", list, msg)
		}
	}
	if code := run([]string{"-exp", "bogus"}); code == 0 {
		t.Error("jpgbench -exp bogus exited 0")
	}

	want, err := selectExperiments(" E1,e10 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 2 || !want["e1"] || !want["e10"] {
		t.Errorf("-exp ' E1,e10 ' selected %v", want)
	}
	if _, err := selectExperiments("all"); err != nil {
		t.Errorf("-exp all: %v", err)
	}
}
