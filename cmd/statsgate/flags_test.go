package main

import (
	"strings"
	"testing"
	"time"

	"gostats/internal/cluster"
)

// TestCheckFlagsNamesTheFlag: what the gateway cannot run with is refused
// at start, naming the flag — a negative -ckpt-every among it, which
// would otherwise take no periodic checkpoint. A period of 0 passes.
func TestCheckFlagsNamesTheFlag(t *testing.T) {
	one := []cluster.Backend{{Addr: "http://127.0.0.1:8417"}}
	for _, tc := range []struct {
		bs        []cluster.Backend
		probe     time.Duration
		ckptEvery int
		flag      string // "" when the flags pass
	}{
		{one, time.Second, 32, ""},
		{one, time.Second, 0, ""},
		{nil, time.Second, 32, "-backends"},
		{one, 0, 32, "-probe-interval"},
		{one, time.Second, -1, "-ckpt-every"},
	} {
		err := checkFlags(tc.bs, tc.probe, tc.ckptEvery)
		switch {
		case tc.flag == "" && err != nil:
			t.Errorf("%d backends, probe %v, ckpt %d: refused: %v", len(tc.bs), tc.probe, tc.ckptEvery, err)
		case tc.flag != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ")):
			t.Errorf("%d backends, probe %v, ckpt %d: error %v, want one naming %s", len(tc.bs), tc.probe, tc.ckptEvery, err, tc.flag)
		}
	}
}
