//! Integration of the distributed substrate: per-node stores, the §IV blob
//! layout, pipelining, and concurrent fetch-and-increment under real
//! threaded execution.

use pareto_cluster::kvstore::{decode_records, encode_records};
use pareto_cluster::{Cost, JobCtx, NodeSpec, Reply, SimCluster};

fn cluster(p: usize) -> SimCluster {
    SimCluster::new(NodeSpec::paper_cluster(p, 400.0, 2, 9, 5))
}

#[test]
fn partition_blobs_survive_placement_and_fetch() {
    let cl = cluster(4);
    // Place distinct blobs on each node, then have each node read its own
    // back inside a job.
    for node in 0..4 {
        let records: Vec<Vec<u8>> = (0..50u32)
            .map(|i| (i * (node as u32 + 1)).to_le_bytes().to_vec())
            .collect();
        cl.store(node)
            .set("partition:data", encode_records(&records))
            .unwrap();
    }
    let tasks: Vec<_> = (0..4)
        .map(|_| {
            |ctx: JobCtx<'_>| {
                let (reply, cost) = ctx.store.get("partition:data").unwrap();
                let Reply::Bytes(blob) = reply else {
                    panic!("expected blob")
                };
                let records = decode_records(&blob).unwrap();
                let first = u32::from_le_bytes(records[1][..4].try_into().unwrap());
                (first as usize, cost)
            }
        })
        .collect();
    let (firsts, report) = cl.execute_job(tasks);
    // Record 1 of node n encodes 1*(n+1).
    assert_eq!(firsts, vec![1, 2, 3, 4]);
    assert!(report.runs.iter().all(|r| r.cost.bytes > 0));
}

#[test]
fn cross_node_store_access_via_cluster_handle() {
    // Candidate broadcast pattern: node 0 (master) publishes; others read.
    let cl = cluster(3);
    cl.store(0).set("candidates", &b"abc"[..]).unwrap();
    let tasks: Vec<_> = (0..3)
        .map(|_| {
            |ctx: JobCtx<'_>| {
                let (reply, cost) = ctx.cluster.store(0).get("candidates").unwrap();
                let Reply::Bytes(b) = reply else {
                    panic!("expected bytes")
                };
                (b.len(), cost)
            }
        })
        .collect();
    let (lens, _) = cl.execute_job(tasks);
    assert_eq!(lens, vec![3, 3, 3]);
}

#[test]
fn pipelined_bulk_load_is_cheaper_than_sequential() {
    let cl = cluster(2);
    let n = 500;
    // Sequential puts.
    let mut seq_cost = Cost::ZERO;
    for i in 0..n {
        let (_, c) = cl.store(0).rpush("seq", vec![0u8; 32]).unwrap();
        seq_cost.add(c);
        let _ = i;
    }
    // Pipelined puts.
    let mut pipe = cl.store(1).pipeline(64);
    for _ in 0..n {
        pipe = pipe.rpush("pipe", vec![0u8; 32]);
    }
    let (_, pipe_cost) = pipe.execute().unwrap();
    let t_seq = cl.cost_to_seconds(0, &seq_cost);
    let t_pipe = cl.cost_to_seconds(1, &pipe_cost);
    assert!(
        t_pipe < t_seq / 5.0,
        "pipelining should cut store time dramatically: {t_pipe} vs {t_seq}"
    );
    // Same data landed either way.
    assert_eq!(cl.store(0).llen("seq").unwrap().0, n as i64);
    assert_eq!(cl.store(1).llen("pipe").unwrap().0, n as i64);
}

#[test]
fn concurrent_store_mutation_is_safe() {
    let cl = cluster(4);
    let shared = cl.store(0).clone();
    let tasks: Vec<_> = (0..4)
        .map(|_| {
            let kv = shared.clone();
            move |_ctx: JobCtx<'_>| {
                let mut cost = Cost::ZERO;
                for _ in 0..250 {
                    let (_, c) = kv.incr("hits").unwrap();
                    cost.add(c);
                }
                ((), cost)
            }
        })
        .collect();
    cl.execute_job(tasks);
    assert_eq!(shared.counter_value("hits").unwrap().0, 1000);
}
