(* Growable node-id bitset + transitive-fanout marking for the incremental
   resynthesis engine. Bytes-backed: dirty checks are the per-root hot path
   of a pass, so membership must stay a single bounds-checked load. *)

type set = {
  mutable bits : Bytes.t;
  mutable card : int;
}

let create ?(all = false) n =
  let n = max 1 n in
  { bits = Bytes.make n (if all then '\001' else '\000'); card = (if all then n else 0) }

let mem s id = id >= 0 && id < Bytes.length s.bits && Bytes.unsafe_get s.bits id = '\001'

let grow s id =
  let len = Bytes.length s.bits in
  if id >= len then begin
    let bits = Bytes.make (max (id + 1) (2 * len)) '\000' in
    Bytes.blit s.bits 0 bits 0 len;
    s.bits <- bits
  end

let add s id =
  if id < 0 then invalid_arg "Footprint.add: negative id";
  grow s id;
  if Bytes.unsafe_get s.bits id = '\000' then begin
    Bytes.unsafe_set s.bits id '\001';
    s.card <- s.card + 1
  end

let remove s id =
  if mem s id then begin
    Bytes.unsafe_set s.bits id '\000';
    s.card <- s.card - 1
  end

let count s = s.card

let clear s =
  if s.card > 0 then Bytes.fill s.bits 0 (Bytes.length s.bits) '\000';
  s.card <- 0

(* The visited table is private to the call: the destination set cannot
   double as one, because a node already dirty from an earlier splice must
   not cut off traversal into its (possibly still clean) fanout cone. *)
let mark_fanout_cone ?on_add c s seeds =
  let n = Circuit.size c in
  let visited = Bytes.make n '\000' in
  let added = ref 0 in
  let stack = ref [] in
  let push id =
    if
      id >= 0 && id < n
      && Bytes.unsafe_get visited id = '\000'
      && Circuit.is_alive c id
    then begin
      Bytes.unsafe_set visited id '\001';
      stack := id :: !stack
    end
  in
  List.iter push seeds;
  let continue_ = ref true in
  while !continue_ do
    match !stack with
    | [] -> continue_ := false
    | id :: rest ->
      stack := rest;
      if not (mem s id) then begin
        incr added;
        add s id;
        match on_add with None -> () | Some f -> f id
      end;
      List.iter push (Circuit.fanouts c id)
  done;
  !added

(* Byte-at-a-time member iteration, skipping empty 8-byte words. Used by
   the worklist's per-pass queue rebuild, which scans the whole dirty set
   once per pass — cheap next to the O(size) topological sort the pass
   already pays for. *)
let iter f s =
  if s.card > 0 then begin
    let n = Bytes.length s.bits in
    let words = n / 8 in
    for w = 0 to words - 1 do
      if Bytes.get_int64_ne s.bits (w * 8) <> 0L then
        for i = w * 8 to (w * 8) + 7 do
          if Bytes.unsafe_get s.bits i = '\001' then f i
        done
    done;
    for i = words * 8 to n - 1 do
      if Bytes.unsafe_get s.bits i = '\001' then f i
    done
  end

(* Ordered worklist view (DESIGN.md §13). The heap keys on the node's
   position in the *current pass's* topological order, not on its id:
   although ids are allocated in topological order at construction time,
   splices retarget the replaced root's readers (small ids) onto fresh
   nodes (large ids), so after the first splice id order and topological
   order disagree and popping by id could visit roots out of topological
   order. The engine hands {!Worklist.start_pass} the id->position table
   of the pass's topological sort; the queue is rebuilt from the dirty set
   under that keying, and ids without a position (freshly spliced
   mid-pass) or at or below the pass cursor (downstream of the walk
   position) simply stay dirty until the next rebuild, mirroring a walk
   that never backs up. *)
module Worklist = struct
  type t = {
    fp : set;  (* dirty membership, shared with the engine's queries *)
    queued : set;  (* ids in [heap] this pass *)
    mutable pos : int array;  (* id -> topo position this pass; -1 = none *)
    mutable heap : int array;  (* ids, max-heap ordered by [pos] *)
    mutable hlen : int;
    mutable cursor : int;  (* position of last pop; max_int at pass start *)
  }

  let fp t = t.fp

  let heap_push t id =
    if t.hlen = Array.length t.heap then begin
      let heap = Array.make (max 16 (2 * t.hlen)) 0 in
      Array.blit t.heap 0 heap 0 t.hlen;
      t.heap <- heap
    end;
    let pos = t.pos in
    let i = ref t.hlen in
    t.hlen <- t.hlen + 1;
    t.heap.(!i) <- id;
    let continue_ = ref true in
    while !continue_ && !i > 0 do
      let p = (!i - 1) / 2 in
      if pos.(t.heap.(p)) < pos.(t.heap.(!i)) then begin
        let tmp = t.heap.(p) in
        t.heap.(p) <- t.heap.(!i);
        t.heap.(!i) <- tmp;
        i := p
      end
      else continue_ := false
    done

  let heap_pop t =
    let pos = t.pos in
    let top = t.heap.(0) in
    t.hlen <- t.hlen - 1;
    if t.hlen > 0 then begin
      t.heap.(0) <- t.heap.(t.hlen);
      let i = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let m = ref !i in
        if l < t.hlen && pos.(t.heap.(l)) > pos.(t.heap.(!m)) then m := l;
        if r < t.hlen && pos.(t.heap.(r)) > pos.(t.heap.(!m)) then m := r;
        if !m <> !i then begin
          let tmp = t.heap.(!m) in
          t.heap.(!m) <- t.heap.(!i);
          t.heap.(!i) <- tmp;
          i := !m
        end
        else continue_ := false
      done
    end;
    top

  let create ?(all = false) n =
    {
      fp = create ~all n;
      queued = create 1;
      pos = [||];
      heap = [||];
      hlen = 0;
      cursor = max_int;
    }

  (* Queue [id] for this pass iff the walk has not yet reached its
     topological position. Ids with no position exist only since a
     mid-pass splice, which the pass's order (fixed at its start) does not
     cover — they stay dirty and enter the queue at the next rebuild. *)
  let enqueue t id =
    if
      id < Array.length t.pos
      && t.pos.(id) >= 0
      && t.pos.(id) < t.cursor
      && not (mem t.queued id)
    then begin
      add t.queued id;
      heap_push t id
    end

  let push t id =
    add t.fp id;
    enqueue t id

  let mark_fanout_cone c t seeds =
    mark_fanout_cone ~on_add:(enqueue t) c t.fp seeds

  let start_pass t ~pos =
    t.pos <- pos;
    t.cursor <- max_int;
    clear t.queued;
    t.hlen <- 0;
    iter (fun id -> enqueue t id) t.fp

  let pop t =
    if t.hlen = 0 then None
    else begin
      let id = heap_pop t in
      remove t.queued id;
      t.cursor <- t.pos.(id);
      Some id
    end
end
