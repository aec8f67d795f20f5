package wpp

// CompactTrace exposes the DBB kernel to the external benchmark.
var CompactTrace = compactTrace
