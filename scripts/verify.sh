#!/usr/bin/env sh
# Tier-1 verification, runnable on a machine with no network and no
# vendored registry: the workspace has zero crates.io dependencies, so
# --offline must always succeed from a bare checkout.
set -eu

cd "$(dirname "$0")/.."

echo "== cargo build --release --offline =="
cargo build --release --offline

echo "== cargo test -q --offline (every workspace member: default-members) =="
cargo test -q --offline

# Everything below adds something `cargo test` alone does not: thread-count
# sweeps, live servers, `cmp` of artifacts, repeat runs of the timing-
# sensitive suites, and bench smokes.

echo "== release CLI links with --resume/--max-recoveries/--clip-norm =="
cargo run --release --offline --bin lasagne-cli -- --list > /dev/null

echo "== determinism across thread counts (LASAGNE_THREADS=1 vs 4) =="
# The kernel suites under both pool sizes — including the blocked-kernel
# equivalence suites (`blocked_equiv`, `spmm_blocked`: blocked kernels are
# bit-for-bit the pinned seed references, and additionally sweep thread
# counts internally)...
LASAGNE_THREADS=1 cargo test -q --offline -p lasagne-tensor -p lasagne-sparse
LASAGNE_THREADS=4 cargo test -q --offline -p lasagne-tensor -p lasagne-sparse
# ...and a short end-to-end training run: the saved checkpoints must be
# byte-identical (same JSON, same bits) whatever the thread count.
LASAGNE_THREADS=1 cargo run --release --offline --bin lasagne-cli -- \
    cora gcn --epochs 3 --save target/verify_t1.ckpt.json > /dev/null
LASAGNE_THREADS=4 cargo run --release --offline --bin lasagne-cli -- \
    cora gcn --epochs 3 --save target/verify_t4.ckpt.json > /dev/null
cmp target/verify_t1.ckpt.json target/verify_t4.ckpt.json

echo "== autograd: gradcheck, random programs, the interpreter at 1 and 4 threads =="
# Includes the randomized properties that partitioned and incremental
# evaluation of random graph programs are bitwise the tape forward and the
# cold evaluation (DESIGN.md §11, §14), plus the interpreter's unit tests.
LASAGNE_THREADS=1 cargo test -q --offline -p lasagne-autograd
LASAGNE_THREADS=4 cargo test -q --offline -p lasagne-autograd

echo "== trace: artifact is valid and has the expected spans =="
rm -f target/verify_trace.ckpt.json
cargo run --release --offline --bin lasagne-cli -- \
    cora gcn --epochs 3 --resume target/verify_trace.ckpt.json \
    --trace-out target/verify_trace.jsonl --trace-summary > /dev/null
cargo run --release --offline -p lasagne-obs --bin tracecheck -- \
    target/verify_trace.jsonl

echo "== trace: deterministic artifacts are byte-identical across runs =="
rm -f target/verify_det.ckpt.json
cargo run --release --offline --bin lasagne-cli -- \
    cora gcn --epochs 3 --resume target/verify_det.ckpt.json \
    --trace-out target/verify_det_a.jsonl --trace-deterministic > /dev/null
rm -f target/verify_det.ckpt.json
cargo run --release --offline --bin lasagne-cli -- \
    cora gcn --epochs 3 --resume target/verify_det.ckpt.json \
    --trace-out target/verify_det_b.jsonl --trace-deterministic > /dev/null
cmp target/verify_det_a.jsonl target/verify_det_b.jsonl

echo "== trace: tracing does not perturb training (checkpoints bitwise equal) =="
cargo run --release --offline --bin lasagne-cli -- \
    cora gcn --epochs 3 --save target/verify_traced.ckpt.json \
    --trace-out target/verify_traced.jsonl > /dev/null
cmp target/verify_t1.ckpt.json target/verify_traced.ckpt.json

echo "== kernels bench smoke (tiny shapes, JSON artifact, disabled-span contract) =="
cargo run --release --offline -p lasagne-bench --bin kernels -- \
    --smoke --out target/BENCH_kernels.smoke.json > /dev/null
test -s target/BENCH_kernels.smoke.json

echo "== serve: frozen export is byte-deterministic (same run, same bytes) =="
cargo run --release --offline --bin lasagne-cli -- \
    cora gcn --epochs 3 --export target/verify_frozen_a.json > /dev/null
cargo run --release --offline --bin lasagne-cli -- \
    cora gcn --epochs 3 --export target/verify_frozen_b.json > /dev/null
cmp target/verify_frozen_a.json target/verify_frozen_b.json

echo "== serve: live server conforms to the wire protocol =="
cargo run --release --offline --bin lasagne-cli -- \
    serve --frozen target/verify_frozen_a.json --port 17878 > /dev/null &
SERVE_PID=$!
# The --check drive retries its connect, so no sleep-and-hope here; it
# sends well-formed, malformed, and out-of-range requests and asserts
# every typed response, then --shutdown stops the server cleanly.
cargo run --release --offline -p lasagne-bench --bin serve-bench -- \
    --check --addr 127.0.0.1:17878
cargo run --release --offline -p lasagne-bench --bin serve-bench -- \
    --shutdown --addr 127.0.0.1:17878
wait "$SERVE_PID"

echo "== serve bench smoke (in-process server, 1/8/64 clients, saturation knee, JSON artifact) =="
cargo run --release --offline -p lasagne-bench --bin serve-bench -- \
    --smoke --out target/BENCH_serve.smoke.json > /dev/null
test -s target/BENCH_serve.smoke.json

echo "== timing-sensitive suites, repeated (overload contract, live-vs-cold streaming) =="
# A flaky test is a bug until proven otherwise: five more runs flush
# accept/refusal and batcher races a single `cargo test` pass can miss.
for run in 1 2 3 4 5; do
    echo "-- repeat $run/5"
    cargo test -q --offline -p lasagne-serve --test overload --test streaming_equiv
done

echo "== overload soak: 30s flood at 4x the knee with chaos clients, hot swap mid-flood =="
# Pass criteria enforced by the binary (DESIGN.md §12): zero untyped
# failures under flood + garbage + slowloris + hangups, health p99 < 5ms
# on the fast path throughout, the mid-soak swap installs atomically, and
# shutdown drains cleanly.
cargo run --release --offline -p lasagne-bench --bin serve-bench -- \
    --soak --duration-s 30

echo "== streaming: live-vs-cold engine suite at 1 and 4 threads =="
LASAGNE_THREADS=1 cargo test -q --offline -p lasagne-serve --test streaming_equiv
LASAGNE_THREADS=4 cargo test -q --offline -p lasagne-serve --test streaming_equiv

echo "== streaming: live mutated server is bitwise-equal to an always-cold engine =="
# The drive replays a scripted mutation session over TCP against a server
# running the incremental path, then dumps every node's prediction bits.
# The reference replays the identical script on a local engine pinned to
# compact_every=1 (every mutation is a from-scratch recompute). cmp of the
# two dumps is the end-to-end exactness check of DESIGN.md §11.
cargo run --release --offline --bin lasagne-cli -- \
    serve --frozen target/verify_frozen_a.json --port 17879 > /dev/null &
STREAM_PID=$!
cargo run --release --offline -p lasagne-bench --bin streaming-bench -- \
    --drive --addr 127.0.0.1:17879 --seed 7 --mutations 40 \
    --out target/verify_stream_drive.txt
cargo run --release --offline -p lasagne-bench --bin serve-bench -- \
    --shutdown --addr 127.0.0.1:17879
wait "$STREAM_PID"
cargo run --release --offline -p lasagne-bench --bin streaming-bench -- \
    --reference --frozen target/verify_frozen_a.json --seed 7 --mutations 40 \
    --out target/verify_stream_reference.txt
cmp target/verify_stream_drive.txt target/verify_stream_reference.txt

echo "== streaming bench smoke (latency vs dirty-set size, JSON artifact) =="
cargo run --release --offline -p lasagne-bench --bin streaming-bench -- \
    --smoke --out target/BENCH_streaming.smoke.json > /dev/null
test -s target/BENCH_streaming.smoke.json

echo "== partitioning: property suite + equivalence harnesses at 1 and 4 threads =="
# The partition-equivalence contract (DESIGN.md §14): partitioned eval,
# streamed out-of-core training, and lazy partitioned serving are bitwise
# identical to the resident paths, at both pool sizes.
LASAGNE_THREADS=1 cargo test -q --offline -p lasagne-graph --test partition
LASAGNE_THREADS=4 cargo test -q --offline -p lasagne-graph --test partition
LASAGNE_THREADS=1 cargo test -q --offline -p lasagne-train --test partition_equiv
LASAGNE_THREADS=4 cargo test -q --offline -p lasagne-train --test partition_equiv
LASAGNE_THREADS=1 cargo test -q --offline -p lasagne-serve --test partition_equiv
LASAGNE_THREADS=4 cargo test -q --offline -p lasagne-serve --test partition_equiv

echo "== partitioned serving: lazy server conforms to the wire protocol =="
cargo run --release --offline --bin lasagne-cli -- \
    serve --frozen target/verify_frozen_a.json --partitions 4 --port 17881 > /dev/null &
LAZY_PID=$!
cargo run --release --offline -p lasagne-bench --bin serve-bench -- \
    --check --addr 127.0.0.1:17881
cargo run --release --offline -p lasagne-bench --bin serve-bench -- \
    --shutdown --addr 127.0.0.1:17881
wait "$LAZY_PID"

echo "== scale bench smoke (per-mode child processes, peak-RSS regression guard) =="
# Exits non-zero unless partitioned peak RSS is strictly below resident
# peak RSS on the largest smoke graph — the out-of-core memory claim,
# measured, not asserted.
cargo run --release --offline -p lasagne-bench --bin scale-bench -- \
    --smoke --out target/BENCH_scale.smoke.json
test -s target/BENCH_scale.smoke.json

echo "== frozen forward and rec serving suites at 1 and 4 threads =="
# The recommendation contract (DESIGN.md §15): frozen `recommend` is
# bitwise the training-side ranker, and frozen logits are bitwise the
# training path's, at both pool sizes.
LASAGNE_THREADS=1 cargo test -q --offline -p lasagne-serve --test frozen_forward
LASAGNE_THREADS=4 cargo test -q --offline -p lasagne-serve --test frozen_forward
LASAGNE_THREADS=1 cargo test -q --offline -p lasagne-serve --test rec_serving
LASAGNE_THREADS=4 cargo test -q --offline -p lasagne-serve --test rec_serving

echo "== rec: exported artifact is byte-deterministic =="
cargo run --release --offline --bin lasagne-cli -- \
    rec --epochs 3 --export target/verify_rec_a.json > /dev/null
cargo run --release --offline --bin lasagne-cli -- \
    rec --epochs 3 --export target/verify_rec_b.json > /dev/null
cmp target/verify_rec_a.json target/verify_rec_b.json

echo "== rec: live server conforms to the recommend protocol =="
# The check regenerates the dataset from the same seed and asserts slate
# shape (sorted, deduped, never a seen item), plus typed refusals for
# k=0, item ids, and out-of-range nodes — against a real TCP server.
cargo run --release --offline --bin lasagne-cli -- \
    serve --frozen target/verify_rec_a.json --port 17882 > /dev/null &
REC_PID=$!
cargo run --release --offline -p lasagne-bench --bin rec-bench -- \
    --check --addr 127.0.0.1:17882 --seed 0
cargo run --release --offline -p lasagne-bench --bin serve-bench -- \
    --shutdown --addr 127.0.0.1:17882
wait "$REC_PID"

echo "== rec: classification server refuses recommend typed =="
cargo run --release --offline --bin lasagne-cli -- \
    serve --frozen target/verify_frozen_a.json --port 17883 > /dev/null &
CLS_PID=$!
cargo run --release --offline -p lasagne-bench --bin rec-bench -- \
    --expect-not-recommender --addr 127.0.0.1:17883
cargo run --release --offline -p lasagne-bench --bin serve-bench -- \
    --shutdown --addr 127.0.0.1:17883
wait "$CLS_PID"

echo "== rec bench smoke (hit-rate@10 must beat popularity, JSON artifact) =="
cargo run --release --offline -p lasagne-bench --bin rec-bench -- \
    --smoke --out target/BENCH_rec.smoke.json > /dev/null
test -s target/BENCH_rec.smoke.json

echo "verify: OK"
