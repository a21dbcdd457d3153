(* Authenticated read path: point-read throughput through SSTable Bloom
   filters, the verified block cache and fence arrays, with the block-read,
   cache and filter counters that explain it. Engine-level, single node: the
   2PC layer would only dilute the effect being measured.

   The workload is the read mix the optimisation targets: half the probes
   hit a hot subset of resident keys (block cache), half probe absent keys
   (Bloom filters). All data is pushed through flush + full compaction
   first so every read is served from authenticated SSTables. *)

module Sim = Treaty_sim.Sim
module Enclave = Treaty_tee.Enclave
open Treaty_storage

type row = {
  tps : float;
  reads : int;
  sim_ms : float;
  block_reads : int;
  cache_hits : int;
  cache_misses : int;
  bloom_neg : int;
  bloom_fp : int;
}

let n_keys () = if !Common.full_mode then 8_000 else 2_000
let n_reads () = if !Common.full_mode then 60_000 else 16_000
(* Even-numbered keys are loaded; odd ones are absent but interleave with
   resident keys, so absent probes pass the fence search and exercise the
   Bloom filter rather than being rejected by key-range bounds. *)
let key i = Printf.sprintf "rk%06d" (2 * i)
let absent i = Printf.sprintf "rk%06d" ((2 * i) + 1)

let engine_cfg =
  {
    Engine.default_config with
    Engine.memtable_max_bytes = 64 * 1024;
    file_bytes = 32 * 1024;
    level_base_bytes = 128 * 1024;
    wait_commit_stable = false;
    block_cache_bytes = 2 * 1024 * 1024;
  }

let seed = 0x5EAD_BE7CL

let run_one () =
  Common.run_sim ~seed (fun sim ->
      let enclave =
        Enclave.create sim ~mode:Enclave.Scone
          ~cost:Treaty_sim.Costmodel.default ~cores:4 ~node_id:1
          ~code_identity:"bench-read-path"
      in
      let sec =
        Sec.create ~enclave ~auth:true
          ~enc:(Some (Treaty_crypto.Aead.key_of_string "bench-key"))
          ()
      in
      let ssd = Ssd.create sim Treaty_sim.Costmodel.default in
      let eng = Engine.create ssd sec engine_cfg Engine.noop_stability in
      let n = n_keys () in
      for i = 0 to n - 1 do
        ignore
          (Engine.commit eng
             ~writes:[ (key i, Op.Put (Printf.sprintf "value-%06d-%s" i (String.make 96 'v'))) ]
             ())
      done;
      Engine.flush_now eng;
      Engine.compact_now eng;
      let snap = Engine.snapshot eng in
      let s0 = Engine.stats eng in
      let base_blocks = s0.Engine.sst_block_reads in
      let t0 = Sim.now sim in
      let reads = n_reads () in
      (* Hot set: 1/8 of the keyspace, strided so probes span many blocks. *)
      let hot = max 1 (n / 8) in
      for i = 0 to reads - 1 do
        let k =
          if i mod 2 = 0 then key (i * 7 mod hot) else absent (i * 13 mod (n - 1))
        in
        match Engine.get eng ~key:k ~snapshot:snap with
        | Memtable.Found _ ->
            if i mod 2 <> 0 then failwith "absent key found"
        | Memtable.Not_found | Memtable.Deleted _ ->
            if i mod 2 = 0 then failwith ("resident key lost: " ^ k)
      done;
      let dt = Sim.now sim - t0 in
      let s = Engine.stats eng in
      {
        tps = float_of_int reads /. (float_of_int dt /. 1e9);
        reads;
        sim_ms = float_of_int dt /. 1e6;
        block_reads = s.Engine.sst_block_reads - base_blocks;
        cache_hits = s.Engine.cache_hits;
        cache_misses = s.Engine.cache_misses;
        bloom_neg = s.Engine.bloom_negatives;
        bloom_fp = s.Engine.bloom_false_positives;
      })

let print label (r : row) =
  Printf.printf
    "  %-10s %12.0f reads/s   %8.1f sim-ms   %6d block reads   cache \
     %d/%d hit/miss   bloom %d neg, %d fp\n%!"
    label r.tps r.sim_ms r.block_reads r.cache_hits r.cache_misses r.bloom_neg
    r.bloom_fp

let run () =
  Common.section "Authenticated read path: Bloom filters + verified block cache";
  Printf.printf "  %d keys, %d point reads (50%% hot-set hits, 50%% absent)\n%!"
    (n_keys ()) (n_reads ());
  let r = run_one () in
  print "read path" r;
  Common.write_bench ~bench:"read_path" ~seed
    [
      ( "configs",
        List
          [
            Obj
              [
                ("name", Str "shipped");
                ("reads_per_sec", Fixed (1, r.tps));
                ("reads", Int r.reads);
                ("sim_ms", Fixed (2, r.sim_ms));
                ("sst_block_reads", Int r.block_reads);
                ("cache_hits", Int r.cache_hits);
                ("cache_misses", Int r.cache_misses);
                ("bloom_negatives", Int r.bloom_neg);
                ("bloom_false_positives", Int r.bloom_fp);
              ];
          ] );
    ]
