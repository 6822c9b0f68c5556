package opgraph

import "strconv"

// labelKind selects the format of a node's lazily-composed label. Nodes
// store only this one byte plus their coordinate fields; the human-readable
// string is produced on demand by Node.Label, so graphs built for plain
// simulation (no trace capture) never pay any string formatting.
type labelKind uint8

const (
	lbFwdEmbedding labelKind = iota
	lbRecvFwd
	lbFwdMHA
	lbARTPFwdMHA
	lbFwdFFN
	lbARTPFwdFFN
	lbFwdLMHead
	lbBwdLMHead
	lbRecvBwd
	lbRecompMHA
	lbARTPRecompMHA
	lbRecompFFN
	lbARTPRecompFFN
	lbBwdFFN
	lbARTPBwdFFN
	lbBwdMHA
	lbARTPBwdMHA
	lbBwdEmbedding
	lbARDP
	lbWeightUpdate
)

// labelForm says which coordinate fields a label renders after its prefix.
type labelForm uint8

const (
	formMB     labelForm = iota // "<prefix>mb<micro>"
	formCMB                     // "<prefix>c<chunk> mb<micro>"
	formLMB                     // "<prefix>L<layer> mb<micro>"
	formS                       // "<prefix>s<stage>"
	formBucket                  // "<prefix>bucket<b> L[<lo>,<hi>) s<stage>"
)

var labelSpecs = [...]struct {
	prefix string
	form   labelForm
}{
	lbFwdEmbedding:  {"Fwd Embedding ", formMB},
	lbRecvFwd:       {"Recv Fwd ", formCMB},
	lbFwdMHA:        {"Fwd MHA ", formLMB},
	lbARTPFwdMHA:    {"AR-TP Fwd MHA ", formLMB},
	lbFwdFFN:        {"Fwd FFN ", formLMB},
	lbARTPFwdFFN:    {"AR-TP Fwd FFN ", formLMB},
	lbFwdLMHead:     {"Fwd LMHead ", formMB},
	lbBwdLMHead:     {"Bwd LMHead ", formMB},
	lbRecvBwd:       {"Recv Bwd ", formCMB},
	lbRecompMHA:     {"Recompute Fwd MHA ", formLMB},
	lbARTPRecompMHA: {"AR-TP Recompute MHA ", formLMB},
	lbRecompFFN:     {"Recompute Fwd FFN ", formLMB},
	lbARTPRecompFFN: {"AR-TP Recompute FFN ", formLMB},
	lbBwdFFN:        {"Bwd FFN ", formLMB},
	lbARTPBwdFFN:    {"AR-TP Bwd FFN ", formLMB},
	lbBwdMHA:        {"Bwd MHA ", formLMB},
	lbARTPBwdMHA:    {"AR-TP Bwd MHA ", formLMB},
	lbBwdEmbedding:  {"Bwd Embedding ", formMB},
	lbARDP:          {"AR-DP ", formBucket},
	lbWeightUpdate:  {"WeightUpdate ", formS},
}

// Label composes the node's human-readable tag, e.g. "Fwd MHA L3 mb2".
// Labels are lazy: nothing is formatted at graph-construction time, and the
// output is byte-identical to the eager fmt.Sprintf labels earlier versions
// stored on every node. Only trace rendering and tests should call this; the
// simulation hot path never does.
func (n *Node) Label() string {
	sp := &labelSpecs[n.label]
	buf := make([]byte, 0, 48)
	buf = append(buf, sp.prefix...)
	switch sp.form {
	case formMB:
		buf = append(buf, 'm', 'b')
		buf = strconv.AppendInt(buf, int64(n.Micro), 10)
	case formCMB:
		buf = append(buf, 'c')
		buf = strconv.AppendInt(buf, int64(n.Chunk), 10)
		buf = append(buf, ' ', 'm', 'b')
		buf = strconv.AppendInt(buf, int64(n.Micro), 10)
	case formLMB:
		buf = append(buf, 'L')
		buf = strconv.AppendInt(buf, int64(n.Layer), 10)
		buf = append(buf, ' ', 'm', 'b')
		buf = strconv.AppendInt(buf, int64(n.Micro), 10)
	case formS:
		buf = append(buf, 's')
		buf = strconv.AppendInt(buf, int64(n.Stage), 10)
	case formBucket:
		buf = append(buf, "bucket"...)
		buf = strconv.AppendInt(buf, int64(n.Bucket), 10)
		buf = append(buf, ' ', 'L', '[')
		buf = strconv.AppendInt(buf, int64(n.Layer), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(n.LayerEnd), 10)
		buf = append(buf, ')', ' ', 's')
		buf = strconv.AppendInt(buf, int64(n.Stage), 10)
	}
	return string(buf)
}
