package diskfault_test

import (
	"testing"

	"conprobe/internal/chaos"
	"conprobe/internal/diskfault"
)

// TestParseSpec pins how a drill spec "site:kind[:afterN]" becomes an
// armed fault: it parses into a chaos diskfault event, and that event
// arms a fault aimed at its site's files, skipping afterN matching
// operations, sticky only for ENOSPC.
func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec    string
		site    string
		kind    diskfault.Kind
		after   int
		sticky  bool
		wantErr bool
	}{
		{spec: "term:fsync-gate", site: "term", kind: diskfault.KindFsyncGate},
		{spec: "wal:torn:3", site: "wal", kind: diskfault.KindTorn, after: 3},
		{spec: "checkpoint:enospc", site: "checkpoint", kind: diskfault.KindENOSPC, sticky: true},
		{spec: "snapshot:crash-rename", site: "snapshot", kind: diskfault.KindCrashRename},
		{spec: "store:bit-flip:1", site: "store", kind: diskfault.KindBitFlip, after: 1},
		{spec: "bogus:torn", wantErr: true},
		{spec: "wal:melt", wantErr: true},
		{spec: "wal", wantErr: true},
		{spec: "wal:torn:-1", wantErr: true},
		{spec: "wal:torn:x", wantErr: true},
	}
	for _, tc := range cases {
		e, err := chaos.ParseDiskFault(tc.spec)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseDiskFault(%q): want error, got %+v", tc.spec, e)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseDiskFault(%q): %v", tc.spec, err)
			continue
		}
		f := e.DiskFault(nil, 0)
		if string(e.Site) != tc.site || f.Kind != tc.kind || f.After != tc.after || f.Sticky != tc.sticky {
			t.Errorf("ParseDiskFault(%q) = %s, %+v", tc.spec, e.Site, f)
		}
		if f.Path != diskfault.Sites[tc.site] {
			t.Errorf("ParseDiskFault(%q) path filter %q, want %q", tc.spec, f.Path, diskfault.Sites[tc.site])
		}
	}
}
