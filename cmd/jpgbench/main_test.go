package main

import (
	"strings"
	"testing"
)

// TestUnknownExperimentFailsLoudly pins -exp parsing: a typo'd or retired id
// exits non-zero with a message naming the valid ids, instead of running
// nothing and passing.
func TestUnknownExperimentFailsLoudly(t *testing.T) {
	for _, list := range []string{"bogus", "e1,e10", "e1,", ""} {
		if _, err := selectExperiments(list); err == nil {
			t.Errorf("-exp %q accepted", list)
		} else if msg := err.Error(); !strings.Contains(msg, "e1, e2, e3, e4, e5, e6, e7, e8, e9, all, none") {
			t.Errorf("-exp %q: message %q does not list the valid ids", list, msg)
		}
	}
	if code := run([]string{"-exp", "bogus"}); code == 0 {
		t.Error("jpgbench -exp bogus exited 0")
	}

	want, err := selectExperiments(" E1,e9 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 2 || !want["e1"] || !want["e9"] {
		t.Errorf("-exp ' E1,e9 ' selected %v", want)
	}
	for _, list := range []string{"all", "none"} {
		if _, err := selectExperiments(list); err != nil {
			t.Errorf("-exp %s: %v", list, err)
		}
	}
}
