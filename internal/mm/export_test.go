package mm

// PscAcyclic exposes the SC axiom's decider to the differential tests.
var PscAcyclic = pscAcyclic
