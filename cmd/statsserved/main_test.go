package main

import (
	"strings"
	"testing"
	"time"

	"gostats/internal/serve"
)

// TestCheckLimitsRefusesNegative: a negative limit flag is refused at
// start, naming the flag, where serve.New would have read it as the
// default. Zero, the default, and positive limits pass.
func TestCheckLimitsRefusesNegative(t *testing.T) {
	for _, tc := range []struct {
		lim  serve.Options
		flag string // "" when the limits pass
	}{
		{serve.Options{}, ""},
		{serve.Options{MaxSessions: 2, SessionTimeout: time.Second, MaxBody: 1 << 20, MaxLine: 4096}, ""},
		{serve.Options{MaxSessions: -1}, "-max-sessions"},
		{serve.Options{SessionTimeout: -time.Second}, "-session-timeout"},
		{serve.Options{MaxBody: -1}, "-max-body"},
		{serve.Options{MaxLine: -1}, "-max-line"},
	} {
		err := checkLimits(tc.lim)
		switch {
		case tc.flag == "" && err != nil:
			t.Errorf("%+v: refused: %v", tc.lim, err)
		case tc.flag != "" && (err == nil || !strings.Contains(err.Error(), tc.flag+" ")):
			t.Errorf("%+v: error %v, want one naming %s", tc.lim, err, tc.flag)
		}
	}
}
