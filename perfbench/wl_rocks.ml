(* rocks-mixgraph: Facebook's MixGraph mix (gets, puts, seeks) on the
   MemSnap-backed key-value store, from twelve green threads in a closed
   loop — each thread issues its next operation when its previous one
   returns. Table 9's memsnap row, with the seed driving every draw. *)

open Common
module Phys = Msnap_vm.Phys
module Aspace = Msnap_vm.Aspace
module Store = Msnap_objstore.Store
module Msnap = Msnap_core.Msnap
module Rocks = Msnap_rocks.Rocks
module Mixgraph = Msnap_workloads.Workloads.Mixgraph
module Keyfmt = Msnap_util.Keyfmt

let nkeys = 8_192
let value_size = 100
let threads = 12

let key_table = Keyfmt.table nkeys (fun b i -> Keyfmt.dec b ~width:20 i)
let key_of i = key_table.(i)

let thread_names =
  Keyfmt.table threads (fun b t ->
      Keyfmt.lit b "mix";
      Keyfmt.dec b ~width:0 t)

let sp_get = Span.make ~samples:true "rocks.get"
let sp_put = Span.make ~samples:true "rocks.put"
let sp_seek = Span.make ~samples:true "rocks.seek"
let sp_gen = Span.make "workloads.gen"

let round ~seed ~ops =
  run_sim (fun () ->
      let setup_t0 = host_s () in
      let rng = Rng.create seed in
      let dev = mk_dev () in
      let phys = Phys.create () in
      on_dispose (fun () -> Phys.dispose phys);
      let aspace = Aspace.create phys in
      Store.format dev;
      let store = Store.mount dev in
      let k = Msnap.init ~store in
      Msnap.attach k aspace;
      let config =
        { Rocks.memtable_flush_bytes = Size.mib 1; region_pages = 3 * nkeys }
      in
      let db = Rocks.open_db ~config (Rocks.Memsnap k) ~name:"mix" in
      (* Prefill the whole keyspace: a get of a never-updated key must
         return the value the prefill wrote. *)
      let prefilled = Array.init nkeys (fun _ -> Rng.string rng value_size) in
      let i = ref 0 in
      while !i < nkeys do
        let n = min 64 (nkeys - !i) in
        Rocks.put_batch db (List.init n (fun j -> (key_of (!i + j), prefilled.(!i + j))));
        i := !i + n
      done;
      let wl = Mixgraph.create ~value_size ~nkeys () in
      let rngs = Array.init threads (fun _ -> Rng.split rng) in
      (* The value a put writes to key [k] is a function of [k]. The slot
         holds the prefill's value until a put to [k] is issued, then that
         put's, so a racing get may already see it. A get is valid if it
         returns one of the two: a key never put has only the prefill's. *)
      let put_value = Array.copy prefilled in
      let valid key v = String.equal v prefilled.(key) || String.equal v put_value.(key)
      in
      let per_thread = ops / threads in
      let lat = Array.make (per_thread * threads) 0 in
      let failed = ref 0 and puts = ref 0 and put_bytes = ref 0 in
      let a = begin_timed ~dev () in
      let nodes0 = Store.nodes_written store in
      let data0 = Store.data_blocks_written store in
      let ts =
        List.init threads (fun t ->
            Sched.spawn ~name:thread_names.(t) (fun () ->
                let rng = rngs.(t) in
                for j = 0 to per_thread - 1 do
                  let s = Sched.now () in
                  let ok =
                    match Span.wrap sp_gen (fun () -> Mixgraph.next wl rng) with
                    | Mixgraph.Get key -> (
                      match Span.wrap sp_get (fun () -> Rocks.get db (key_of key)) with
                      | Some v -> valid key v
                      | None -> false)
                    | Mixgraph.Put (key, v) ->
                      put_value.(key) <- v;
                      incr puts;
                      put_bytes := !put_bytes + String.length (key_of key) + String.length v;
                      Span.wrap sp_put (fun () -> Rocks.put db ~key:(key_of key) ~value:v);
                      true
                    | Mixgraph.Seek (key, n) ->
                      let rows = Span.wrap sp_seek (fun () -> Rocks.seek db (key_of key) ~n) in
                      let rec sorted prev = function
                        | [] -> true
                        | (k', v) :: rest ->
                          let ki = int_of_string k' in
                          ki >= prev && valid ki v && sorted (ki + 1) rest
                      in
                      List.length rows <= n && sorted key rows
                  in
                  if not ok then incr failed;
                  lat.((t * per_thread) + j) <- Sched.now () - s
                done))
      in
      List.iter Sched.join ts;
      let b = end_timed ~dev () in
      let ops = per_thread * threads in
      let counts =
        core_counts ~store ~nodes0 ~data0
        @ [
            ( "rocks.persists_per_put",
              fdiv (Metrics.samples Probe.db_memsnap) !puts );
            ("rocks.persist_sim_us", Metrics.mean_ns Probe.db_memsnap /. 1e3);
          ]
      in
      let host =
        if !traced then
          [
            ("rocks.get_span_us", span_p50_us sp_get);
            ("rocks.put_span_us", span_p50_us sp_put);
            ("rocks.seek_span_us", span_p50_us sp_seek);
            ("workloads.gen_host_ns_per_op", span_mean_ns sp_gen);
          ]
        else []
      in
      close_round ~setup_t0 ~ops ~failed:!failed ~lat ~payload:!put_bytes ~counts
        ~host a b)
