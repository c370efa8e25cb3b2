package main

import (
	"net/http/httptest"
	"strings"
	"testing"

	"conprobe/internal/httpapi"
	"conprobe/internal/service"
	"conprobe/internal/simnet"
)

func TestBuildRejectsUnknownServiceAndBadFlags(t *testing.T) {
	if _, _, err := build([]string{"-service", "myspace"}); err == nil {
		t.Fatal("unknown service accepted")
	}
	if _, _, err := build([]string{"-nope"}); err == nil {
		t.Fatal("bad flag accepted")
	}
	if _, _, err := build([]string{"-shards", "4"}); err == nil {
		t.Fatal("-shards accepted")
	}
}

// TestBuildRejectsInjectionInClusterMode: a cluster applies every
// committed op on every replica, so a failure injected inside one node's
// replica would make that replica skip what the others apply.
func TestBuildRejectsInjectionInClusterMode(t *testing.T) {
	for _, cluster := range [][]string{
		{"-role", "leader", "-node-id", "n1"},
		{"-node-id", "n1", "-self-url", "http://localhost:1", "-peers", "http://localhost:2"},
		{"-node-id", "n1", "-self-url", "http://localhost:1", "-join", "http://localhost:2"},
	} {
		args := append([]string{"-inject-write-fail", "0.1"}, cluster...)
		if _, _, err := build(args); err == nil || !strings.Contains(err.Error(), "-inject-*") {
			t.Errorf("build(%q) = %v, want the -inject-* refusal", args, err)
		}
	}
	if _, _, err := build([]string{"-inject-write-fail", "0.1", "-jitter", "0"}); err != nil {
		t.Fatalf("standalone injection refused: %v", err)
	}
}

func TestBuildServesProfileEndToEnd(t *testing.T) {
	srv, name, err := build([]string{"-service", "blogger", "-addr", "127.0.0.1:0", "-rate", "0", "-jitter", "0"})
	if err != nil {
		t.Fatal(err)
	}
	if name != service.NameBlogger {
		t.Fatalf("name = %s", name)
	}
	ts := httptest.NewServer(srv.Handler)
	defer ts.Close()

	cl, err := httpapi.NewClient(ts.URL, name, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Write(simnet.Oregon, service.Post{ID: "m1", Author: "a1"}); err != nil {
		t.Fatal(err)
	}
	posts, err := cl.Read(simnet.Tokyo, "a2")
	if err != nil {
		t.Fatal(err)
	}
	if len(posts) != 1 || posts[0].ID != "m1" {
		t.Fatalf("posts = %+v", posts)
	}
	// Clock endpoint works for sync probes.
	if _, err := cl.TimeProbe()(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildRateLimitApplied(t *testing.T) {
	srv, _, err := build([]string{"-service", "blogger", "-rate", "0.001", "-jitter", "0"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler)
	defer ts.Close()
	cl, err := httpapi.NewClient(ts.URL, "blogger", ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	// Burst defaults to rate (<1): the first request already exceeds it.
	err = cl.Write(simnet.Oregon, service.Post{ID: "m1"})
	if err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("err = %v, want 429", err)
	}
}
