package graph

// RandExtendHistory exposes the randomized exploration-history generator
// to the external tests of this directory, which may import internal/mm
// (mm imports graph, so the in-package tests cannot).
var RandExtendHistory = randExtendHistory
