package main

import (
	"fmt"
	"syscall"
)

// fsNames maps statfs magic numbers to the names mount(8) prints.
var fsNames = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x794c7630: "overlay",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
	0x2fc12fc1: "zfs",
}

// fsType names the filesystem dir lives on: fsync on tmpfs is free, on a
// disk it is most of a write, so records from the two must not be mixed.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}
