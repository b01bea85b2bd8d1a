type node =
  | Leaf of int array
  | Inner of node option array

type t = { root : node option array; mutable nodes : int }

let create () = { root = Array.make Addr.fanout None; nodes = 1 }

let lookup t vpn =
  let rec go level children =
    let i = Addr.index ~level vpn in
    match children.(i) with
    | None -> Pte.empty
    | Some (Leaf slots) -> slots.(Addr.index ~level:0 vpn)
    | Some (Inner ch) -> go (level - 1) ch
  in
  go (Addr.levels - 1) t.root

let walk t vpn =
  let rec go level children =
    let i = Addr.index ~level vpn in
    if level = 1 then begin
      let slots =
        match children.(i) with
        | Some (Leaf slots) -> slots
        | Some (Inner _) -> assert false
        | None ->
          let slots = Array.make Addr.fanout Pte.empty in
          children.(i) <- Some (Leaf slots);
          t.nodes <- t.nodes + 1;
          slots
      in
      Ptloc.make slots (Addr.index ~level:0 vpn)
    end
    else
      let ch =
        match children.(i) with
        | Some (Inner ch) -> ch
        | Some (Leaf _) -> assert false
        | None ->
          let ch = Array.make Addr.fanout None in
          children.(i) <- Some (Inner ch);
          t.nodes <- t.nodes + 1;
          ch
      in
      go (level - 1) ch
  in
  go (Addr.levels - 1) t.root

let find_loc t vpn =
  let rec go level children =
    let i = Addr.index ~level vpn in
    match children.(i) with
    | None -> None
    | Some (Leaf slots) -> Some (Ptloc.make slots (Addr.index ~level:0 vpn))
    | Some (Inner ch) -> go (level - 1) ch
  in
  go (Addr.levels - 1) t.root

let set t vpn pte = Ptloc.set (walk t vpn) pte

let scan_range t ~vpn ~n ~f =
  let visited = ref 0 in
  let first = vpn and last = vpn + n - 1 in
  (* Recursive descent over the radix tree, clipping to [first, last]. *)
  let rec go level children base =
    let span = 1 lsl (level * Addr.index_bits) in
    for i = 0 to Addr.fanout - 1 do
      let lo = base + (i * span) in
      let hi = lo + span - 1 in
      if hi >= first && lo <= last then begin
        match children.(i) with
        | None -> ()
        | Some (Leaf slots) ->
          for s = 0 to Addr.fanout - 1 do
            let v = lo + s in
            if v >= first && v <= last then begin
              incr visited;
              if Pte.present slots.(s) then f v (Ptloc.make slots s)
            end
          done
        | Some (Inner ch) -> go (level - 1) ch lo
      end
    done
  in
  go (Addr.levels - 1) t.root 0;
  !visited

