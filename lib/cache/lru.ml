(* Hashtable over an intrusive doubly-linked recency list.  [first] is
   the most recently used node, [last] the eviction candidate. *)

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a node option; (* toward [first] *)
  mutable next : 'a node option; (* toward [last] *)
}

type 'a t = {
  capacity : int;
  tbl : (string, 'a node) Hashtbl.t;
  mutable first : 'a node option;
  mutable last : 'a node option;
  mutable evictions : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Lru.create: capacity must be positive";
  { capacity; tbl = Hashtbl.create 64; first = None; last = None; evictions = 0 }

let capacity t = t.capacity
let length t = Hashtbl.length t.tbl
let evictions t = t.evictions

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.first <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.last <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.first;
  node.prev <- None;
  (match t.first with Some f -> f.prev <- Some node | None -> t.last <- Some node);
  t.first <- Some node

(* Physical equality on the node itself: comparing [t.first] with a
   fresh [Some node] would always differ and relink the newest key. *)
let touch t node =
  match t.first with
  | Some first when first == node -> ()
  | _ ->
    unlink t node;
    push_front t node

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | None -> None
  | Some node ->
    touch t node;
    Some node.value

let mem t key = Hashtbl.mem t.tbl key

let evict_last t =
  match t.last with
  | None -> ()
  | Some node ->
    unlink t node;
    Hashtbl.remove t.tbl node.key;
    t.evictions <- t.evictions + 1

let add t key value =
  match Hashtbl.find_opt t.tbl key with
  | Some node ->
    node.value <- value;
    touch t node
  | None ->
    if Hashtbl.length t.tbl >= t.capacity then evict_last t;
    let node = { key; value; prev = None; next = None } in
    Hashtbl.replace t.tbl key node;
    push_front t node

let fold f acc t =
  let rec go acc = function
    | None -> acc
    | Some node -> go (f acc node.key node.value) node.next
  in
  go acc t.first
