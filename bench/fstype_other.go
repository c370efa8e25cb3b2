//go:build !linux

package main

// fsType is only known on Linux, where statfs reports it.
func fsType(string) string { return "unknown" }
