package diskfault

import (
	"fmt"
	"strconv"
	"strings"
)

// Sites maps drill-site names — the storage surfaces a consvc node
// persists through — to the path substring that identifies that site's
// files. The chaos layer and the consvc -disk-fault flag both speak
// these names.
var Sites = map[string]string{
	"wal":        "oplog.log",  // the cluster op WAL
	"term":       "term.log",   // the election term log
	"snapshot":   ".log.tmp",   // a compaction's temp file: a log being rewritten around its snapshot
	"store":      "wal-",       // the durable store's WAL (wal-0.log)
	"checkpoint": "checkpoint", // campaign checkpoint journals
}

// SiteNames lists the known sites in a stable order.
func SiteNames() []string {
	return []string{"wal", "term", "snapshot", "store", "checkpoint"}
}

// ParseSpec parses a drill spec of the form "site:kind[:afterN]" —
// e.g. "term:fsync-gate" or "wal:torn:3" — into the site name and the
// fault to arm, with the site's path filter filled in.
func ParseSpec(spec string) (site string, f Fault, err error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return "", Fault{}, fmt.Errorf("diskfault: spec %q: want site:kind[:afterN]", spec)
	}
	site = parts[0]
	pathSub, ok := Sites[site]
	if !ok {
		return "", Fault{}, fmt.Errorf("diskfault: spec %q: unknown site %q (known: %s)",
			spec, site, strings.Join(SiteNames(), ", "))
	}
	f = Fault{Kind: Kind(parts[1]), Path: pathSub}
	if !f.Kind.Valid() {
		return "", Fault{}, fmt.Errorf("diskfault: spec %q: unknown fault kind %q", spec, parts[1])
	}
	if len(parts) == 3 {
		after, aerr := strconv.Atoi(parts[2])
		if aerr != nil || after < 0 {
			return "", Fault{}, fmt.Errorf("diskfault: spec %q: after must be a non-negative integer", spec)
		}
		f.After = after
	}
	// A full disk stays full; everything else fires once.
	f.Sticky = f.Kind == KindENOSPC
	return site, f, nil
}
