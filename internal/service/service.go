// Package service defines the black-box online-service abstraction that
// measurement agents probe, together with simulated implementations of
// the four services the paper studied: Blogger, Google+, Facebook Feed
// and Facebook Group.
//
// Each simulated service combines a geo-replicated store.Cluster, a
// routing table mapping agent locations to data centers, and optional
// read-time behaviors (interest-based selection for Facebook Feed,
// occasional reads served by a remote replica for Google+). Client-
// perceived latency is modeled by sleeping the one-way network delay on
// each leg of a request, so operation invocation/response timestamps in
// the collected traces carry realistic wide-area timing.
package service

import (
	"conprobe/internal/simnet"
	"conprobe/internal/store"
)

// Post is one message as seen through a service API. It is the store's
// post, so a simulated read hands on the replica's rendering as it is.
type Post = store.Post

// Service is the API surface probed by agents: post a message, list the
// current sequence of messages (Section IV: "the notion of a read or a
// write operation is specific to each service").
type Service interface {
	// Name identifies the service profile (e.g. "googleplus").
	Name() string

	// Write publishes p on behalf of an agent located at from. It
	// returns once the service has acknowledged the write.
	Write(from simnet.Site, p Post) error

	// Read returns the sequence of posts currently observable by reader
	// (an agent label) from the given location, in service order. The
	// slice is read-only and may be shared: readers of an unchanged
	// replica get the same one — on a Simulated service, the store's own
	// rendering (store.Cluster.Read) unless a selection changed it. Its
	// spare capacity, if any, is the caller's alone (a Simulated result's
	// length equals its capacity), so an append never reaches another
	// reader's posts; a caller that reorders, drops or overwrites posts
	// copies them first. Posts are values: nothing the service keeps
	// changes with a copy.
	Read(from simnet.Site, reader string) ([]Post, error)

	// Reset clears all service state; campaigns call it between tests. A
	// failed reset must be reported: silently carrying the previous
	// test's posts into the next trace would corrupt every checker.
	Reset() error
}
