package wal

import "jxtaoverlay/internal/seglog"

// headerSize is the frame header ahead of every record body.
const headerSize = seglog.HeaderSize
