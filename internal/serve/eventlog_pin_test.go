package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestEventLogBytesPinned pins the full SSE event log of one legacy job
// and one composed job — hello, state, point, metrics snapshots, trace
// lines, dropped markers, result chunks, done — to SHA-256 digests. The
// determinism tests only compare two runs of the same build; these
// digests catch an encoder change that alters the bytes on both sides.
// The composed job runs under a small trace budget so the log also
// carries a dropped event.
func TestEventLogBytesPinned(t *testing.T) {
	cases := []struct {
		name, path, job string
		budget          int
		want            string
	}{
		{"chaos", "/v1/runs", `{"scenario":"chaos","params":{"procs":[4,8],"ops_each":2}}`, 0,
			"703693c815048ecb247edc2597b4bf17ac5bec1ddf8478d72378dba10e82e330"},
		{"compose", "/v1/compose?async=1", fastCompose, 200,
			"9efffd2227052211f556d059c338b44282c867e672a7d72b93d437dd196773a8"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, Options{TraceBudget: tc.budget})
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.job))
			if err != nil {
				t.Fatal(err)
			}
			var info RunInfo
			err = json.NewDecoder(resp.Body).Decode(&info)
			resp.Body.Close()
			if err != nil || info.ID == "" {
				t.Fatalf("submit: status %d, info %+v, err %v", resp.StatusCode, info, err)
			}
			raw, evs := readSSE(t, ts.URL+"/v1/runs/"+info.ID+"/events")
			seen := map[string]int{}
			for _, ev := range evs {
				seen[ev.name]++
			}
			for _, name := range []string{"metrics", "trace", "result", "done"} {
				if seen[name] == 0 {
					t.Fatalf("event log has no %s event: %v", name, seen)
				}
			}
			if tc.budget > 0 && seen["dropped"] == 0 {
				t.Fatalf("trace budget %d never reached: %v", tc.budget, seen)
			}
			sum := sha256.Sum256([]byte(raw))
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("event log sha256 = %s, want %s (%d bytes, events %v)", got, tc.want, len(raw), seen)
			}
		})
	}
}
