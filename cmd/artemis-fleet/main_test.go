package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFlagValidation pins the CLI's rejected combinations.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-devices", "-1"}, "must be >= 0"},
		{[]string{"-queue-depth", "0"}, "must be positive"},
	}
	for _, c := range cases {
		err := run(c.args, &bytes.Buffer{})
		if err == nil {
			t.Errorf("args %v: accepted", c.args)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("args %v: error %q does not mention %q", c.args, err, c.want)
		}
	}
}
